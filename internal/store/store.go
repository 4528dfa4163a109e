// Package store is the repo's content-addressed result store. Results
// are addressed by 128-bit content keys built from the IR hashes of
// their inputs (ir.ConfigHash / ir.WorkloadHash), so a result is
// location-independent: any process that can derive the key can reuse
// it.
//
// The package has three parts, each used on its own:
//
//   - Memory: a sharded LRU keyed by Key. dse.Explorer caches evaluated
//     points in one, and search.Runner uses another as its no-eviction
//     visit archive.
//   - Flight: single-flight deduplication of identical in-flight
//     computations. The server coalesces identical queued jobs with it.
//   - Files: a durable named-entry map in a versioned, checksummed file
//     container. The server's job journal lives in one.
package store

// Key is a 128-bit content address. By module convention Hi is the
// configuration content hash and Lo the workload content hash, but the
// store treats the pair as opaque: equal keys mean interchangeable
// results. Key-producing functions are checked by acrlint's memokey
// analyzer the same way content hashes are — every tracked input field
// must fold into the key.
type Key struct {
	Hi, Lo uint64
}

// Stats is one cache's effectiveness snapshot — the shape Memory,
// Flight and perf's component memo tables all report, so /metrics can
// expose every cache uniformly.
type Stats struct {
	// Hits and Misses count lookup outcomes since construction. For the
	// flight tier, Hits counts followers served by a shared computation
	// and Misses counts leader computations.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts entries displaced by a size bound.
	Evictions uint64 `json:"evictions"`
	// Len is the current entry count, Capacity the configured bound
	// (0 = unbounded).
	Len      int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes approximates the tier's resident size: value bytes plus the
	// 16 key bytes per entry for the memory tier.
	Bytes int64 `json:"bytes"`
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
