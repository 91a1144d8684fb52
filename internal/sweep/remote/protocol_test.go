package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/spec"
)

// progressFrame is a progress frame as a worker forwards it mid-run.
func progressFrame() *frame {
	return &frame{Type: msgProgress, Event: &experiment.ProgressEvent{
		Kind: experiment.ProgressStepEstimated, Run: "fig8-l2-rep1", Index: 7,
	}}
}

// resultFrame is a result frame carrying every kind of payload field.
func resultFrame() *frame {
	return &frame{Type: msgResult, Index: 3, ID: "fig8-l2-rep1", FromCheckpoint: true, Result: &wireResult{
		Name:                 "fig8-l2-rep1",
		Times:                []int{0, 250},
		MI:                   []float64{0.125, 1.5},
		Decomp:               []infotheory.Decomposition{{Between: 0.25, Within: []float64{0.5, 0.75}}},
		Entropies:            []infotheory.EntropyProfile{{Joint: 3.5, MarginalSum: 5}},
		Labels:               []int{0, 1, 0, 1},
		EquilibratedFraction: 0.75,
	}}
}

// After a connection's first frame the schema has crossed it, so a
// progress frame is a few dozen bytes, sends without allocating and
// receives in five allocations: the decoded values, read from the
// connection's reused payload buffer.
func TestWireProgressFrameSteadyState(t *testing.T) {
	var conn bytes.Buffer // in-memory connection: tx writes, rx reads
	tx, rx := newWire(&conn), newWire(&conn)
	want := progressFrame()
	for i := 0; i < 2; i++ {
		if err := tx.send(want); err != nil {
			t.Fatal(err)
		}
		size := conn.Len()
		got, err := rx.recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if i == 1 && size >= 64 {
			t.Errorf("second progress frame is %d bytes on the wire, want < 64", size)
		}
	}
	conn.Grow(1 << 16) // the sends below must not grow the connection
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tx.send(want); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("send of a progress frame: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := rx.recv(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 5 {
		t.Errorf("recv of a progress frame: %v allocs/op, want 5", allocs)
	}
}

// Frames of mixed sizes on one connection decode intact: recv reads each
// into the buffer the last one left, shorter or longer.
func TestWireMixedFramesDecodeIntact(t *testing.T) {
	var conn bytes.Buffer
	tx, rx := newWire(&conn), newWire(&conn)
	frames := []*frame{
		resultFrame(), progressFrame(), resultFrame(),
		{Type: msgError, Index: 1, ID: "bad-run", Error: "k >= m"}, progressFrame(),
	}
	for _, f := range frames {
		if err := tx.send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := rx.recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
}

// Only an EOF before a frame's first byte is a clean close. A peer that
// dies after a header, or sends a header with no frame behind it, tore
// the frame.
func TestRecvTornFrameIsNotEOF(t *testing.T) {
	if _, err := newWire(new(bytes.Buffer)).recv(); err != io.EOF {
		t.Errorf("recv at a clean close = %v, want io.EOF", err)
	}
	for _, in := range [][]byte{{0, 0}, {0, 0, 0, 10}, {0, 0, 0, 0}} {
		_, err := newWire(bytes.NewBuffer(in)).recv()
		if err == nil || errors.Is(err, io.EOF) {
			t.Errorf("recv(% x) = %v, want an error that is not io.EOF", in, err)
		}
	}
}

// A payload holding more than its one message is rejected: on a stateful
// stream a dropped trailing type definition would break a later frame.
func TestRecvRejectsTrailingBytes(t *testing.T) {
	var one bytes.Buffer
	if err := newWire(&one).send(progressFrame()); err != nil {
		t.Fatal(err)
	}
	b := append(one.Bytes(), 0x7f)
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := newWire(bytes.NewBuffer(b)).recv(); err == nil {
		t.Fatal("recv accepted a payload with a trailing byte")
	}
}

// FuzzRecv reads arbitrary bytes as a stream of frames. Whatever arrives,
// recv must not panic, must return io.EOF exactly when the input ended on
// a frame boundary, must reject a header above the cap having read only
// that header, and must not allocate far beyond the input's size. The
// constant slack covers gob's up-front allocation for a slice length the
// payload does not back, which Go caps at 10 MiB.
func FuzzRecv(f *testing.F) {
	sp, err := spec.FromPipeline(experiment.Fig8Specs(tinyScale(), 1, 1)[0].Pipeline)
	if err != nil {
		f.Fatal(err)
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	tx := newWire(&stream)
	for _, fr := range []*frame{
		{Type: msgSpec, Index: 2, ID: "fig8-l1-rep0", SpecJSON: specJSON},
		progressFrame(),
		{Type: msgProgress, Event: &experiment.ProgressEvent{Run: "fig8-l1-rep0"}},
		resultFrame(),
		{Type: msgError, Index: 1, ID: "bad-run", Error: "k >= m"},
	} {
		if err := tx.send(fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:stream.Len()/2])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 10})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes+1))

	f.Fuzz(func(t *testing.T, in []byte) {
		conn := bytes.NewBuffer(in)
		w := newWire(conn)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		var at int // input offset of the frame recv last started on
		for err == nil {
			at = len(in) - conn.Len()
			_, err = w.recv()
		}
		runtime.ReadMemStats(&after)
		if errors.Is(err, io.EOF) != (at == len(in)) {
			t.Fatalf("recv at byte %d of %d: %v; want io.EOF exactly at the end of the input", at, len(in), err)
		}
		if len(in)-at >= 4 && binary.BigEndian.Uint32(in[at:]) > maxFrameBytes {
			if read := len(in) - conn.Len() - at; read != 4 {
				t.Fatalf("a header above the cap read %d bytes, want its 4", read)
			}
		}
		if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+64*len(in)); grown > limit {
			t.Fatalf("recv over %d input bytes allocated %d bytes, want <= %d", len(in), grown, limit)
		}
	})
}
