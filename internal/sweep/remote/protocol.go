// Package remote shards one sweep across worker processes on the same
// box. A Coordinator (the experiment.Sweeper half) listens on a unix
// socket, spawns N workers, and hands each idle worker one sweep spec at
// a time; workers (the Serve half) run the spec through their own
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
// The wire format is one gob stream per connection, cut into
// length-prefixed frames: a 4-byte big-endian length followed by the gob
// output of exactly one frame. The stream is stateful, so the type
// descriptors cross a connection once, in its first frame, and a
// progress frame after that is a few dozen bytes. The prefix caps every
// frame, so a single oversized frame fails loudly instead of running
// away, and it detects torn frames: a peer that dies mid-frame reads as
// an error, never as a clean close. A recv error ends the connection,
// since the stream cannot be resumed past it. Specs cross the wire as
// their canonical JSON (sops.Spec is versioned and JSON-round-trippable
// by contract), which keeps the hot fingerprint path — worker rebuilds
// the pipeline, fingerprints it, hits the shared store — byte-identical
// to the coordinator's view.
package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
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

// wire frames one gob stream over one connection: a persistent encoder
// writes each frame into buf behind its length prefix, and a persistent
// decoder reads each payload through rd. Sends are serialised by a
// mutex (progress events race the result message on the worker side)
// and a send error is sticky: a failed or oversized Encode leaves the
// encoder's type table ahead of the peer, and once the peer is gone
// every later send fails fast with the same error. A recv error is
// terminal too; both callers drop the connection on one.
type wire struct {
	conn io.ReadWriter

	mu      sync.Mutex
	sendErr error
	buf     bytes.Buffer
	enc     *gob.Encoder

	rmu     sync.Mutex
	payload []byte // recv's buffer, reused for every frame it holds
	rd      bytes.Reader
	dec     *gob.Decoder
}

func newWire(conn io.ReadWriter) *wire {
	w := &wire{conn: conn}
	w.enc = gob.NewEncoder(&w.buf)
	w.dec = gob.NewDecoder(&w.rd)
	return w
}

// send writes one frame: gob-encode behind a length prefix placeholder,
// then prefix + payload in a single Write so frames are never
// interleaved.
func (w *wire) send(f *frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sendErr != nil {
		return w.sendErr
	}
	w.buf.Reset()
	w.buf.Write([]byte{0, 0, 0, 0}) // length prefix placeholder
	if err := w.enc.Encode(f); err != nil {
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

// recv reads one frame. It returns io.EOF only on a clean close before a
// frame's first byte; once a header is in, running out of bytes is
// io.ErrUnexpectedEOF. Each frame decodes into a fresh value: gob omits
// zero fields, so a reused frame would keep a stale Index or Kind.
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
	// A frame that fits reads into the buffer earlier frames left (gob
	// copies what it keeps). A longer one grows a new buffer as its
	// bytes arrive, which replaces the old one unless it is longer than
	// recvChunk.
	payload := w.payload[:min(int(n), cap(w.payload))]
	var err error
	if len(payload) == int(n) {
		_, err = io.ReadFull(w.conn, payload)
	} else if payload, err = readPayload(w.conn, int(n)); err == nil && n <= recvChunk {
		w.payload = payload
	}
	if err != nil {
		return nil, fmt.Errorf("remote: read frame payload: %w", torn(err))
	}
	w.rd.Reset(payload)
	f := new(frame)
	if err := w.dec.Decode(f); err != nil {
		return nil, fmt.Errorf("remote: decode frame: %w", torn(err))
	}
	if w.rd.Len() != 0 {
		return nil, fmt.Errorf("remote: %d bytes left after the frame", w.rd.Len())
	}
	return f, nil
}

// torn reports an EOF inside a frame as io.ErrUnexpectedEOF, so that no
// caller mistakes a peer dying mid-frame for a clean close.
func torn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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

// dial connects a worker to the coordinator's unix socket. The context
// governs the dial only; close the returned conn to abort reads.
func dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "unix", addr)
}
