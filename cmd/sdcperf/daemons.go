package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"farron/internal/engine"
	"farron/internal/engine/cluster"
	"farron/internal/experiments"
)

// daemonCount is the number of loopback cluster daemons, one connection
// each: no more than the two CPUs the workloads are sized for.
const daemonCount = 2

// daemonTimeout bounds the wait for the daemons to start listening.
const daemonTimeout = 10 * time.Second

// daemonTracer is the tracer of the bench using the daemons, if it is
// traced; the registry the daemons serve records its spans there.
var daemonTracer atomic.Pointer[tracer]

// startDaemons launches the loopback cluster worker daemons that
// cluster-cold and the cluster probe distribute to, the first time it is
// called, and returns their addresses. Every bench of the process shares
// them, and they serve until the process exits: cluster.ListenAndServe has
// no stop, and the benchmark may not open sockets itself.
var startDaemons = sync.OnceValues(func() ([]string, error) {
	return listen(traceRegistry(experiments.Registry(), daemonTracer.Load), daemonCount)
})

// listen starts n daemons on ephemeral loopback ports. ListenAndServe
// reports the bound address only in its start-up log line, so until every
// daemon has reported it the standard logger is routed through a watcher
// that picks the address out and passes every line on.
func listen(exps []engine.Experiment, n int) ([]string, error) {
	prev := log.Writer()
	w := &addrWatch{next: prev, addrs: make(chan string, n)}
	log.SetOutput(w)
	defer log.SetOutput(prev)
	failed := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { failed <- cluster.ListenAndServe("127.0.0.1:0", exps, "") }()
	}
	timeout := time.After(daemonTimeout)
	var hosts []string
	for len(hosts) < n {
		select {
		case addr := <-w.addrs:
			hosts = append(hosts, addr)
		case err := <-failed:
			return nil, fmt.Errorf("cluster daemon: %w", err)
		case <-timeout:
			return nil, errors.New("cluster daemons did not report a listen address")
		}
	}
	return hosts, nil
}

// addrWatch is a log writer that forwards each line and sends the address
// of every "listening on <addr>" line.
type addrWatch struct {
	mu    sync.Mutex
	next  io.Writer
	addrs chan string
}

func (w *addrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, rest, ok := strings.Cut(string(p), "listening on "); ok {
		if addr, _, ok := strings.Cut(rest, " "); ok {
			select {
			case w.addrs <- addr:
			default:
			}
		}
	}
	return w.next.Write(p)
}
