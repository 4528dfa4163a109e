package store

import (
	"context"
	"sync"
)

// Flight deduplicates identical in-flight computations: while one caller
// (the leader) computes a key's value, concurrent callers for the same
// key block and share the leader's result instead of recomputing it.
// The zero value is ready to use.
//
// Unlike the classic singleflight, a leader's error is not shared:
// errors here are usually the leader's own context cancellation, which
// says nothing about whether a follower (with a live context and maybe a
// later deadline) could succeed — so a follower that observes a failed
// leader retries for leadership and computes under its own context.
// Deterministic failures therefore cost one computation per caller,
// exactly what they cost without the flight layer.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[Key]*flightCall[V]
	// leads counts computations run, shares followers served by one —
	// reported as the tier's Misses and Hits respectively.
	leads, shares uint64
}

type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns fn()'s result for k, computing it at most once across
// concurrent callers. shared reports whether the value came from another
// caller's computation. A follower whose own ctx expires while waiting
// returns ctx.Err() without a value.
func (f *Flight[V]) Do(ctx context.Context, k Key, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		f.mu.Lock()
		if f.calls == nil {
			f.calls = make(map[Key]*flightCall[V])
		}
		if c, ok := f.calls[k]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				var zero V
				return zero, true, ctx.Err()
			}
			if c.err == nil {
				// Count the share only now that a value is actually being
				// delivered. Counting at wait-entry double-counted followers
				// that observed a failed leader and looped to contend again
				// (once per retry), and counted followers that then timed out
				// without ever receiving a value — inflating the flight
				// tier's Hits in /metrics.
				f.mu.Lock()
				f.shares++
				f.mu.Unlock()
				return c.v, true, nil
			}
			if err := ctx.Err(); err != nil {
				var zero V
				return zero, true, err
			}
			continue // leader failed; contend for leadership ourselves
		}
		c := &flightCall[V]{done: make(chan struct{})}
		f.calls[k] = c
		f.leads++
		f.mu.Unlock()
		c.v, c.err = fn()
		f.mu.Lock()
		// Remove before signalling: late arrivals become fresh leaders
		// (the value is expected to be cached by now) while existing
		// waiters drain from c.
		delete(f.calls, k)
		f.mu.Unlock()
		close(c.done)
		return c.v, false, c.err
	}
}

// Stats reports the flight tier's dedup effectiveness: Hits are
// followers served by a shared computation, Misses are computations led,
// Len the computations currently in flight.
func (f *Flight[V]) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{Hits: f.shares, Misses: f.leads, Len: len(f.calls)}
}
