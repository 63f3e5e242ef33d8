package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call into a layer's public API, recorded by the
// harness around the call. Parent is the index of the enclosing span (-1 at
// the root); Op groups the spans of one operation (a solve or a root job).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// recorder keeps spans in memory while a run is traced and writes them out
// once at the end. When off, begin returns -1 and end ignores it, so an
// untraced run records nothing.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	if !r.on {
		return -1
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, StartUS: now, EndUS: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	r.spans[id].EndUS = now
	r.mu.Unlock()
}

// selfMS returns each finished span name's self times in ms: a span's
// duration minus the part of it its direct children cover.
func (r *recorder) selfMS() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && s.EndUS >= 0 {
			children[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := map[string][]float64{}
	for i, s := range r.spans {
		if s.EndUS < 0 {
			continue
		}
		self := s.EndUS - s.StartUS - children[i]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
