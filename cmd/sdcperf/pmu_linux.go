package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// perfAttr is the first version of the kernel's struct perf_event_attr
// (PERF_ATTR_SIZE_VER0, 64 bytes), which every later kernel accepts.
type perfAttr struct {
	typ          uint32
	size         uint32
	config       uint64
	samplePeriod uint64
	sampleType   uint64
	readFormat   uint64
	flags        uint64
	wakeup       uint32
	bpType       uint32
	config1      uint64
}

const (
	perfTypeHardware   = 0
	perfHWCycles       = 0
	perfHWInstructions = 1

	// Flag bits: count the threads a counted thread starts, and user space
	// only, which is all an unprivileged process may count
	// (perf_event_paranoid 2).
	perfInherit       = 1 << 1
	perfExcludeKernel = 1 << 5
	perfExcludeHV     = 1 << 6

	// read_format: the value is followed by the time the counter was
	// enabled and the time it was counting, so that a count the kernel
	// multiplexed with other counters can be scaled up.
	perfFormatTimes = 1 | 2
)

// pmuEvents are the hardware events a pmu counts, in pmuCounts order.
var pmuEvents = []uint64{perfHWCycles, perfHWInstructions}

// pmu counts CPU cycles and instructions retired in user space over every
// thread of the process: one counter per event on each thread that existed
// when it was opened, each inherited by every thread that thread starts
// later. The Go runtime starts threads only from threads it already has,
// so every thread the process will ever run is counted. The counters are
// Linux's perf events, so the benchmark builds on Linux alone.
type pmu struct {
	fds [][]int // per event, one counter per thread
}

// openPMU opens the counters. It lists the process's threads until a
// listing finds none it has not opened, as the runtime may start one while
// the first counters are opened.
func openPMU() (*pmu, error) {
	p := &pmu{fds: make([][]int, len(pmuEvents))}
	opened := make(map[int]bool)
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, err
		}
		fresh := 0
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || opened[tid] {
				continue
			}
			for k, ev := range pmuEvents {
				fd, err := perfOpen(ev, tid)
				if err != nil {
					return nil, fmt.Errorf("hardware counters: perf_event_open on thread %d: %w", tid, err)
				}
				p.fds[k] = append(p.fds[k], fd)
			}
			opened[tid] = true
			fresh++
		}
		if fresh == 0 {
			return p, nil
		}
	}
}

func perfOpen(config uint64, tid int) (int, error) {
	attr := perfAttr{
		typ:        perfTypeHardware,
		config:     config,
		readFormat: perfFormatTimes,
		flags:      perfInherit | perfExcludeKernel | perfExcludeHV,
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)), uintptr(tid), ^uintptr(0), ^uintptr(0), 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// read returns the process's counts so far. Reading a thread's counter
// adds in the counters its descendants inherited. A nil pmu reads zero.
func (p *pmu) read() (pmuCounts, error) {
	if p == nil {
		return pmuCounts{}, nil
	}
	var v [2]float64
	var buf [24]byte
	for k, fds := range p.fds {
		for _, fd := range fds {
			n, err := syscall.Read(fd, buf[:])
			if err != nil {
				return pmuCounts{}, fmt.Errorf("hardware counters: %w", err)
			}
			if n != len(buf) {
				return pmuCounts{}, fmt.Errorf("hardware counters: read %d bytes, want %d", n, len(buf))
			}
			val := binary.LittleEndian.Uint64(buf[0:])
			enabled := binary.LittleEndian.Uint64(buf[8:])
			running := binary.LittleEndian.Uint64(buf[16:])
			if running > 0 {
				v[k] += float64(val) * float64(enabled) / float64(running)
			}
		}
	}
	return pmuCounts{cycles: v[0], instructions: v[1]}, nil
}
