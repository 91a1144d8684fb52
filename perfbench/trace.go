package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, timed from outside the layer. Times are
// wall-clock Unix nanoseconds, so spans recorded by worker processes on the
// same host line up with the coordinator's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at the end of
// the traced run. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func now() int64 { return time.Now().UnixNano() }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int, name, run string, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: start, End: end})
	return id
}

// begin opens a span ending at the returned function's call.
func (t *tracer) begin(parent int, name, run string) (id int, end func()) {
	id = t.add(parent, name, run, now(), 0)
	return id, func() {
		e := now()
		t.mu.Lock()
		t.spans[id-1].End = e
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children, so overlapping
// children (parallel workers) are not subtracted twice.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to s.
func covered(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// The layers a share row splits time into.
var layers = []string{"sim", "align", "estimate", "store", "remote", "other"}

// layerOf maps a span name to its layer; "" marks measurement-only spans
// (the ICP iteration probe) that belong to no layer and no total.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "probe."):
		return ""
	case strings.HasPrefix(name, "sim."):
		return "sim"
	case strings.HasPrefix(name, "observer."), strings.HasPrefix(name, "align."):
		return "align"
	case strings.HasPrefix(name, "infotheory."):
		return "estimate"
	case strings.HasPrefix(name, "sweep.store."):
		return "store"
	case strings.HasPrefix(name, "remote."):
		return "remote"
	}
	return "other"
}

// runSpan names the span of one sweep run's compute, between its store
// load and save. The real sweep cannot be split into stages from outside,
// so its self time is divided by the stage fractions the stage-by-stage
// replay of the same spec measured.
const runSpan = "experiment.run"

// layerShares sums self time per layer and returns each layer's
// percentage of the total. split maps a run ID to the fractions its
// runSpan self time is divided into; runs without one count as "other".
func layerShares(spans []span, split map[string]map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	sum := make(map[string]float64)
	var total float64
	for _, s := range spans {
		layer := layerOf(s.Name)
		if layer == "" {
			continue
		}
		t := float64(self[s.ID])
		total += t
		if fr, ok := split[s.Run]; ok && s.Name == runSpan {
			for l, f := range fr {
				sum[l] += f * t
			}
			continue
		}
		sum[layer] += t
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = 100 * sum[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares
}
