// Package remote shards one sweep across worker processes on the same
// box. A Coordinator (the experiment.Sweeper half) listens on a unix or
// TCP socket, spawns N workers, and hands each idle worker one sweep
// spec at a time; workers (the Serve half) run the spec through their own
// sweep.Runner against the shared ResultStore, stream ProgressEvents
// back, and return the trimmed result.
//
// Distribution is correct by construction, not by protocol cleverness:
// every run is deterministic and keyed by spec.PipelineFingerprint, so
// handing a run to any worker — or re-handing it after a crash — is
// idempotent. A lost connection just requeues the spec; if the dead
// worker had already checkpointed the run, the retry resumes from the
// store instead of recomputing. The coordinator splits the global token
// budget across live workers GOMAXPROCS-style, so N children never
// oversubscribe the box the way N independent sweeps would.
//
// The wire format is length-prefixed frames: a 4-byte big-endian length
// followed by one self-contained gob-encoded frame. Each frame is
// encoded with a fresh encoder (stateless framing), so a reader can cap,
// skip or resync on frame boundaries without tracking stream state, and
// a single oversized frame fails loudly instead of running away. Specs
// cross the wire as their canonical JSON (sops.Spec is versioned and
// JSON-round-trippable by contract), which keeps the hot fingerprint
// path — worker rebuilds the pipeline, fingerprints it, hits the shared
// store — byte-identical to the coordinator's view.
package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/experiment"
	"repro/internal/infotheory"
)

// maxFrameBytes caps a single frame. Results are curve-level payloads
// (kilobytes at paper scale); anything near the cap is corruption, not
// data.
const maxFrameBytes = 64 << 20

// msgType discriminates the frames of the coordinator/worker protocol.
type msgType uint8

const (
	// msgSpec (coordinator → worker): run this spec. ID and Index carry
	// the sweep-level identity; SpecJSON is the canonical spec document.
	msgSpec msgType = 1 + iota
	// msgResult (worker → coordinator): the run completed; Result holds
	// the trimmed curve payload, FromCheckpoint whether the worker's
	// store already had it.
	msgResult
	// msgError (worker → coordinator): the run failed for a reason of its
	// own (bad spec, pipeline error). The worker stays alive; the
	// coordinator aborts the sweep with this error.
	msgError
	// msgProgress (worker → coordinator): one pipeline-level
	// ProgressEvent from the run in flight, forwarded so the
	// coordinator's subscriber sees a single merged stream.
	msgProgress
)

// frame is the one wire message; Type selects which fields are live.
type frame struct {
	Type  msgType
	Index int
	ID    string

	SpecJSON       []byte
	Result         *wireResult
	FromCheckpoint bool
	Error          string
	Event          *experiment.ProgressEvent
}

// wireResult is the trimmed result payload — exactly the fields the
// checkpoint runFile persists, so what crosses the wire and what crosses
// the store are the same result by construction.
type wireResult struct {
	Name                 string
	Times                []int
	MI                   []float64
	MIStdErr             []float64
	Decomp               []infotheory.Decomposition
	Entropies            []infotheory.EntropyProfile
	Labels               []int
	EquilibratedFraction float64
}

func toWire(res *experiment.Result) *wireResult {
	return &wireResult{
		Name:                 res.Name,
		Times:                res.Times,
		MI:                   res.MI,
		MIStdErr:             res.MIStdErr,
		Decomp:               res.Decomp,
		Entropies:            res.Entropies,
		Labels:               res.Labels,
		EquilibratedFraction: res.EquilibratedFraction,
	}
}

func fromWire(w *wireResult) *experiment.Result {
	return &experiment.Result{
		Name:                 w.Name,
		Times:                w.Times,
		MI:                   w.MI,
		MIStdErr:             w.MIStdErr,
		Decomp:               w.Decomp,
		Entropies:            w.Entropies,
		Labels:               w.Labels,
		EquilibratedFraction: w.EquilibratedFraction,
	}
}

// wire frames gob messages over one connection. Sends are serialised by
// a mutex (progress events race the result message on the worker side)
// and a send error is sticky: once the peer is gone every later send
// fails fast with the same error.
type wire struct {
	conn net.Conn

	mu      sync.Mutex
	sendErr error
	buf     bytes.Buffer

	rmu sync.Mutex
}

func newWire(conn net.Conn) *wire {
	return &wire{conn: conn}
}

// send writes one frame: gob-encode to a scratch buffer, then length
// prefix + payload in a single Write so frames are never interleaved.
func (w *wire) send(f *frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sendErr != nil {
		return w.sendErr
	}
	w.buf.Reset()
	w.buf.Write([]byte{0, 0, 0, 0}) // length prefix placeholder
	if err := gob.NewEncoder(&w.buf).Encode(f); err != nil {
		w.sendErr = fmt.Errorf("remote: encode frame: %w", err)
		return w.sendErr
	}
	b := w.buf.Bytes()
	n := len(b) - 4
	if n > maxFrameBytes {
		w.sendErr = fmt.Errorf("remote: frame of %d bytes exceeds cap", n)
		return w.sendErr
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	if _, err := w.conn.Write(b); err != nil {
		w.sendErr = fmt.Errorf("remote: write frame: %w", err)
		return w.sendErr
	}
	return nil
}

// recv reads one frame. io.EOF on a clean close between frames.
func (w *wire) recv() (*frame, error) {
	w.rmu.Lock()
	defer w.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(w.conn, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("remote: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds cap", n)
	}
	payload, err := readPayload(w.conn, int(n))
	if err != nil {
		return nil, fmt.Errorf("remote: read frame payload: %w", err)
	}
	var f frame
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		return nil, fmt.Errorf("remote: decode frame: %w", err)
	}
	return &f, nil
}

// recvChunk is the first read of a frame payload. A frame up to this
// size is read into one allocation of exactly its length.
const recvChunk = 64 << 10

// readPayload reads an n-byte frame payload, growing the buffer only as
// bytes arrive: each step at most doubles what has already been read,
// so a header that claims the cap and a peer that then dies cost one
// chunk, not the claimed length.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, recvChunk))
	read := 0
	for {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			return nil, err
		}
		if read = len(buf); read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
}

// Network classifies a coordinator address: path-shaped addresses are
// unix sockets, everything else is TCP host:port. One rule shared by
// listen and dial so the two sides can never disagree.
func Network(addr string) string {
	if strings.ContainsRune(addr, '/') {
		return "unix"
	}
	return "tcp"
}

// Dial connects a worker to the coordinator address. The context governs
// the dial only; close the returned conn to abort reads.
func Dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, Network(addr), addr)
}
