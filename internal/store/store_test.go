package store

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// pairCodec encodes a two-field struct — enough structure to catch
// header/payload framing bugs without depending on higher layers.
type pair struct {
	A uint64
	B string
}

type pairCodec struct{ version string }

func (c pairCodec) Version() string {
	if c.version != "" {
		return c.version
	}
	return "pair-v1"
}

func (pairCodec) Encode(dst []byte, v pair) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, v.A)
	dst = binary.AppendUvarint(dst, uint64(len(v.B)))
	return append(dst, v.B...), nil
}

func (pairCodec) Decode(data []byte) (pair, error) {
	if len(data) < 8 {
		return pair{}, errors.New("short")
	}
	v := pair{A: binary.LittleEndian.Uint64(data)}
	n, used := binary.Uvarint(data[8:])
	if used <= 0 || uint64(len(data)-8-used) != n {
		return pair{}, errors.New("bad string length")
	}
	v.B = string(data[8+used:])
	return v, nil
}

// TestFlightDeduplicates drives N concurrent callers of one key through
// a gate so all of them are in flight together: exactly one computation
// must run, everyone shares its value.
func TestFlightDeduplicates(t *testing.T) {
	var f Flight[int]
	const n = 16
	var computed atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := f.Do(context.Background(), Key{Hi: 1}, func() (int, error) {
				<-gate // hold the flight open until all callers joined
				computed.Add(1)
				return 99, nil
			})
			if err != nil || v != 99 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	// Wait until one leader is registered, then let it finish. Followers
	// that arrive after close(gate) still share the same call until the
	// leader completes; any that arrive later would lead a new flight —
	// so release the gate only once every goroutine is launched and the
	// flight has a leader.
	for f.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := computed.Load(); got < 1 || got > n {
		t.Fatalf("computed %d times", got)
	}
	s := f.Stats()
	if s.Misses+s.Hits != n {
		t.Errorf("flight stats %+v: leads+shares = %d, want %d", s, s.Misses+s.Hits, n)
	}
	if s.Len != 0 {
		t.Errorf("flight still tracks %d calls after completion", s.Len)
	}
}

// TestFlightFollowerRetriesAfterLeaderFailure pins the error contract: a
// follower does not inherit the leader's failure, it recomputes.
func TestFlightFollowerRetriesAfterLeaderFailure(t *testing.T) {
	var f Flight[int]
	k := Key{Hi: 4}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		f.Do(context.Background(), k, func() (int, error) {
			close(leaderIn)
			<-release
			return 0, errors.New("leader died")
		})
	}()
	<-leaderIn
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := f.Do(context.Background(), k, func() (int, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Errorf("follower after failed leader: %d, %v", v, err)
		}
	}()
	close(release)
	<-done
}

// TestFlightShareCountedOnlyOnDelivery is the stats regression for the
// double-count: a follower that observes a failed leader and loops to
// contend again used to bump shares once per retry (and even when it
// then timed out), so the flight tier's Hits in /metrics exceeded the
// number of values ever shared. A share must count only when a value is
// actually delivered from another caller's computation.
func TestFlightShareCountedOnlyOnDelivery(t *testing.T) {
	var f Flight[int]
	k := Key{Hi: 6}

	// Round 1: leader fails while one follower waits and a second
	// follower times out mid-wait. Neither received a value, so neither
	// may count as a share.
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		f.Do(context.Background(), k, func() (int, error) {
			close(leaderIn)
			<-release
			return 0, errors.New("leader died")
		})
	}()
	<-leaderIn
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Do(expired, k, func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("timed-out follower err = %v", err)
	}
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		// Observes the failed leader, loops, wins leadership, computes.
		v, shared, err := f.Do(context.Background(), k, func() (int, error) { return 7, nil })
		if err != nil || v != 7 || shared {
			t.Errorf("retrying follower: v=%d shared=%v err=%v", v, shared, err)
		}
	}()
	close(release)
	<-followerDone

	s := f.Stats()
	if s.Hits != 0 {
		t.Errorf("after failed leader + timed-out follower: shares = %d, want 0 (no value was ever shared)", s.Hits)
	}
	if s.Misses != 2 {
		t.Errorf("leads = %d, want 2 (failed leader + retrying follower)", s.Misses)
	}

	// Round 2: a genuine share still counts exactly once. Joining an
	// in-flight call is inherently racy from outside, so retry rounds
	// until one follower actually shares; each round delivers at most one
	// share, so the first success pins the counter at exactly 1.
	for attempt := 0; attempt < 1000 && f.Stats().Hits == 0; attempt++ {
		leaderIn2 := make(chan struct{})
		release2 := make(chan struct{})
		go func() {
			f.Do(context.Background(), k, func() (int, error) {
				close(leaderIn2)
				<-release2
				return 42, nil
			})
		}()
		<-leaderIn2
		shareDone := make(chan struct{})
		go func() {
			defer close(shareDone)
			v, _, err := f.Do(context.Background(), k, func() (int, error) { return 42, nil })
			if err != nil || v != 42 {
				t.Errorf("round-2 follower: v=%d err=%v", v, err)
			}
		}()
		runtime.Gosched()
		close(release2)
		<-shareDone
	}
	if s := f.Stats(); s.Hits != 1 {
		t.Errorf("after one delivered value: shares = %d, want 1", s.Hits)
	}
}

// TestFlightFollowerHonorsOwnContext: a waiting follower whose context
// expires returns its own error instead of blocking on the leader.
func TestFlightFollowerHonorsOwnContext(t *testing.T) {
	var f Flight[int]
	k := Key{Hi: 5}
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		f.Do(context.Background(), k, func() (int, error) {
			close(leaderIn)
			<-release
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Do(ctx, k, func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower returned %v, want context.Canceled", err)
	}
}

// TestMemoryNoEvictionWhenSizedToInserts pins the archive use: a Memory
// tier whose capacity covers every insert never evicts — the property
// search.Runner's budget-sized visit archive depends on.
func TestMemoryNoEvictionWhenSizedToInserts(t *testing.T) {
	const n = 500
	m := NewMemory[int](n, 1)
	for i := 0; i < n; i++ {
		m.Put(Key{Hi: uint64(i)}, i)
	}
	s := m.Stats()
	if s.Evictions != 0 || s.Len != n {
		t.Fatalf("stats = %+v, want all %d entries resident with zero evictions", s, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(Key{Hi: uint64(i)}); !ok || v != i {
			t.Fatalf("entry %d: %d, %v", i, v, ok)
		}
	}
}
