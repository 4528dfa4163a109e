package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dse"
	"repro/internal/model"
)

// TestCacheConcurrentStress hammers the shared point store from many
// goroutines mixing hits, misses and evictions; run with -race it proves
// the sharded LRU point cache is data-race free.
func TestCacheConcurrentStress(t *testing.T) {
	cache := newPointCache(256)
	w := model.PaperWorkload(model.Llama3_8B())
	base := arch.A100()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				cfg := base
				cfg.L2MB = 8 + (g*13+i)%512 // many distinct keys force evictions
				key := dse.PointKey(cfg, w)
				if p, ok := cache.Get(key); ok && p.Config.L2MB != cfg.L2MB {
					t.Errorf("cache returned a point for the wrong key: L2 %d != %d",
						p.Config.L2MB, cfg.L2MB)
					return
				}
				cache.Put(key, dse.Point{Config: cfg})
			}
		}(g)
	}
	wg.Wait()
	s := cache.Stats()
	if s.Len > s.Capacity {
		t.Errorf("cache exceeded its bound: %d > %d", s.Len, s.Capacity)
	}
	if s.Evictions == 0 {
		t.Error("stress should have forced evictions")
	}
}

// TestConcurrentSimulateRequests drives the full handler stack — HTTP
// decode, shared explorer, shared cache, metrics — from concurrent
// clients. With -race this is the end-to-end concurrency check for the
// synchronous path.
func TestConcurrentSimulateRequests(t *testing.T) {
	s := New(Config{
		Workers: 2,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Four distinct configs across all goroutines: plenty of
				// contention on the same cache entries.
				body := fmt.Sprintf(
					`{"config":{"preset":"a100","l2_mb":%d},"workload":{"model":"llama3"}}`,
					40+8*((g+i)%4))
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	stats := s.Explorer().Cache.Stats()
	if stats.Misses < 4 {
		t.Errorf("expected at least 4 distinct simulations, got %d misses", stats.Misses)
	}
	if stats.Hits == 0 {
		t.Error("80 requests over 4 configs should mostly hit the cache")
	}
}

// TestCacheDirHoldsOnlyJournal runs a DSE job on a server with a cache
// directory: evaluated points stay in memory, so the directory holds the
// job journal and nothing else, and /metrics reports the point cache as
// the one "mem" tier next to the job flight and the perf memo tables.
func TestCacheDirHoldsOnlyJournal(t *testing.T) {
	dir := t.TempDir()
	s, ts := journalServer(t, dir)
	defer func() { ts.Close(); s.Close() }()

	_, body := postJSON(t, ts.URL+"/v1/dse", smallDSEBody)
	var enq EnqueueResponse
	if err := json.Unmarshal(body, &enq); err != nil {
		t.Fatal(err)
	}
	if st := pollJob(t, ts.URL, enq.JobID); st.State != "succeeded" {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "jobs" {
		t.Errorf("cache dir holds %v, want only the jobs journal", names)
	}

	var m MetricsSnapshot
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for name := range m.Store {
		if name != "mem" && name != "jobs.dse" && !strings.HasPrefix(name, "perf.") {
			t.Errorf("/metrics store has unexpected tier %q", name)
		}
	}
	mem, ok := m.Store["mem"]
	if !ok || mem.Misses == 0 || mem.Misses != m.Cache.Misses || mem.Hits != m.Cache.Hits {
		t.Errorf("store mem = %+v (present %v), want the point cache's counts %+v", mem, ok, m.Cache)
	}
	if _, ok := m.Store["jobs.dse"]; !ok {
		t.Error("/metrics store lacks the jobs.dse flight")
	}
}
