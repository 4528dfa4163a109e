package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// The serve workload's server under test and its load generator.

// liveServer is a server.New instance serving on a loopback listener.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer starts the default server (logger discarded) with the given
// span-ring capacity (0: the default ring; -1: tracing off).
func startServer(traceCapacity int) (*liveServer, error) {
	srv := server.New(server.Config{
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceCapacity: traceCapacity,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	return ls, nil
}

// close stops the listener, waits for the serve loop to return and
// releases the server's job queue.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx) //nolint:errcheck // best effort; Close below releases the queue
	<-ls.done
	ls.srv.Close()
}

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// A request is ready at its due time, or when the previous request on
// its connection completes if that is later. Its latency from due time is
// the wait until it was ready plus its own round trip; the generator's
// timer lag between ready and sent is reported apart (loadgen.late).
type syncDone struct {
	ready, sent, done time.Duration // offsets from the window start
	status            int
	body              []byte
	err               error
	skipped           bool
}

type dseDone struct {
	ready, sent, first, done time.Duration
	status                   int // submit status
	frames                   [][]byte
	points                   int
	err                      error
	skipped                  bool
}

type runResult struct {
	start  time.Time
	sync   []syncDone
	dse    []dseDone
	before metricsWire
	after  metricsWire
}

// waitUntil sleeps until the due offset; it reports false when the
// request is hopelessly late and must not be sent.
func waitUntil(start time.Time, due, limit time.Duration) bool {
	if d := due - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	return time.Since(start) <= limit
}

// drive plays the schedule against the server: one goroutine per
// connection, both joined before it returns. With closed set, each
// connection ignores the due times and sends its next request as soon as
// the previous one completes.
func drive(ls *liveServer, s *schedule, closed bool) runResult {
	syncC, dseC := newClient(), newClient()
	defer syncC.CloseIdleConnections()
	defer dseC.CloseIdleConnections()
	res := runResult{sync: make([]syncDone, len(s.sync)), dse: make([]dseDone, len(s.dse))}
	res.before, _ = fetchMetrics(syncC, ls.base)
	limit := s.window + maxLag
	res.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var prev time.Duration
		for i, r := range s.sync {
			d := &res.sync[i]
			if !closed && !waitUntil(res.start, r.due, limit) {
				d.skipped = true
				continue
			}
			d.ready, d.sent = ready(r.due, prev, closed), time.Since(res.start)
			d.status, d.body, d.err = do(syncC, http.MethodPost, ls.base+r.path, r.body)
			d.done = time.Since(res.start)
			prev = d.done
		}
	}()
	go func() {
		defer wg.Done()
		var prev time.Duration
		for i, r := range s.dse {
			d := &res.dse[i]
			if !closed && !waitUntil(res.start, r.due, limit) {
				d.skipped = true
				continue
			}
			d.ready, d.sent = ready(r.due, prev, closed), time.Since(res.start)
			dseOne(dseC, ls.base, s.grids[r.grid].body, res.start, d)
			d.done = time.Since(res.start)
			prev = d.done
		}
	}()
	wg.Wait()
	res.after, _ = fetchMetrics(syncC, ls.base)
	return res
}

// ready is when a request could first be sent: its due time, or the
// completion of the previous request on its connection if that is later;
// in a closed loop, always the latter.
func ready(due, prev time.Duration, closed bool) time.Duration {
	if closed {
		return prev
	}
	return max(due, prev)
}

// dseOne submits one sweep and reads its stream to the summary frame.
func dseOne(c *http.Client, base string, body []byte, start time.Time, d *dseDone) {
	status, b, err := do(c, http.MethodPost, base+"/v1/dse", body)
	d.status = status
	if err != nil || status != http.StatusAccepted {
		d.err = fmt.Errorf("submit: status %d: %v %s", status, err, bytes.TrimSpace(b))
		return
	}
	var acc struct {
		StreamURL string `json:"stream_url"`
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.StreamURL == "" {
		d.err = fmt.Errorf("submit response: %v", err)
		return
	}
	resp, err := c.Get(base + acc.StreamURL)
	if err != nil {
		d.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.status = resp.StatusCode
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
		d.err = fmt.Errorf("stream: status %d", resp.StatusCode)
		return
	}
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if len(d.frames) == 0 {
				d.first = time.Since(start)
			}
			d.frames = append(d.frames, line)
			if bytes.HasPrefix(line, []byte(`{"type":"point"`)) {
				d.points++
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				d.err = err
			}
			break
		}
	}
	io.Copy(io.Discard, rd) //nolint:errcheck // drained for connection reuse
}

type statsWire struct {
	Hits   float64 `json:"hits"`
	Misses float64 `json:"misses"`
}

type metricsWire struct {
	Cache statsWire            `json:"cache"`
	Store map[string]statsWire `json:"store"`
}

func fetchMetrics(c *http.Client, base string) (metricsWire, error) {
	var m metricsWire
	status, b, err := do(c, http.MethodGet, base+"/metrics", nil)
	if err != nil || status != http.StatusOK {
		return m, fmt.Errorf("/metrics: %d %v", status, err)
	}
	return m, json.Unmarshal(b, &m)
}

// hitRatio is the window's hit ratio over the named tiers (prefix match),
// and false when none of them is exposed.
func hitRatio(before, after metricsWire, prefix string) (float64, bool) {
	var h, m float64
	found := false
	for name, a := range after.Store {
		if strings.HasPrefix(name, prefix) {
			found = true
			b := before.Store[name]
			h += a.Hits - b.Hits
			m += a.Misses - b.Misses
		}
	}
	if !found || h+m == 0 {
		return 0, false
	}
	return h / (h + m), true
}
