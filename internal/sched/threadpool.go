package sched

import "sync"

// threadPool runs virtual threads on reusable goroutines. A goroutine whose
// virtual thread has finished parks on the pool and runs the next spawned
// thread, keeping the stack the earlier threads grew, so a search that
// replays one program thousands of times stops paying for a fresh stack,
// and its growth, per thread and replay. An exploration owns one pool for
// all its replays; Run makes a run-scoped one. close returns only after
// every pooled goroutine has exited, so none outlives its owner.
type threadPool struct {
	next chan *T // parked goroutines receive their next thread here
	wg   sync.WaitGroup
}

func newThreadPool() *threadPool {
	return &threadPool{next: make(chan *T)}
}

// start runs x's thread on a parked goroutine, or on a new one when none is
// parked.
func (p *threadPool) start(x *T) {
	select {
	case p.next <- x:
	default:
		p.wg.Add(1)
		go p.serve(x)
	}
}

// serve runs threads, x first, until the pool closes.
func (p *threadPool) serve(x *T) {
	defer p.wg.Done()
	x.rt.threadBody(x)
	for x := range p.next {
		x.rt.threadBody(x)
	}
}

// close stops the parked goroutines and waits until every pooled goroutine
// has exited. Every run on the pool must have returned.
func (p *threadPool) close() {
	close(p.next)
	p.wg.Wait()
}
