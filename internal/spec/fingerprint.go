package spec

import (
	"hash/fnv"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/forces"
)

// PipelineFingerprint derives a stable FNV-1a identity for everything
// that affects a single run's numbers: the pipeline knobs, the ensemble
// grid and seed, the simulation parameters, and the force's matrices.
// It is THE checkpoint key — the sweep layer's gob checkpoints are keyed
// by it, and its byte recipe is frozen (checkpoints written by earlier
// releases must keep verifying), so changes here invalidate every
// checkpoint on disk and must bump the checkpoint file version instead.
//
// ok is false when the force is nil or a custom Scaling with no
// serialisable spec — such runs are recomputed rather than resumed,
// since their identity cannot be pinned. Worker counts and budgets
// (ensemble, estimator, sweep) are deliberately excluded: results are
// bit-identical across all of them. The frozen observer text alone
// still carries Align.Workers, which no spec sets.
// TestFingerprintCoversEveryLeaf moves every leaf of the pipeline and
// holds both rules.
//
// The key text is built in a stack buffer and costs no allocation for
// any force the paper uses (TestPipelineFingerprintAllocationFree).
func PipelineFingerprint(id string, p experiment.Pipeline) (fp uint64, ok bool) {
	var text [keyBytes]byte
	var spans [keyTypes * keyTypes]span
	b, ok := appendKey(text[:0], spans[:0], id, p)
	if !ok {
		return 0, false
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), true
}

// keyBytes and keyTypes size PipelineFingerprint's stack scratch.
// keyBytes holds the key of the paper's largest force, Figs. 9 and 10's
// 20 types under F¹ (about 9 KB), and appendMatrix records one span per
// entry of a matrix of up to keyTypes types. A larger force spills the
// scratch to the heap and writes the same text.
const (
	keyBytes = 12 << 10
	keyTypes = 20
)

// appendKey appends the key's text to b and reports whether the force
// has one. The text is the recipe frozen when it was printed with fmt,
// byte for byte (TestFingerprintMatchesLegacyCheckpointKey checks it
// against that recipe): integers in decimal, bools as true/false, floats
// as %g prints them — strconv's shortest 'g', whose ±Inf and NaN fmt
// prints alike — and slices as "[a b c]".
func appendKey(b []byte, spans []span, id string, p experiment.Pipeline) ([]byte, bool) {
	b = append(b, "run|"...)
	b = append(b, id...)
	b = append(b, '|')
	b = append(b, p.Estimator...)
	b = appendInt(b, p.K)
	b = appendInt(b, p.Bins)
	b = appendBool(b, p.Decompose)
	b = appendBool(b, p.TrackEntropies)
	b = append(b, '|')

	ec := p.Ensemble
	b = append(b, "ens"...)
	b = appendInt(b, ec.M)
	b = appendInt(b, ec.Steps)
	b = appendInt(b, ec.RecordEvery)
	b = append(b, '|')
	b = strconv.AppendUint(b, ec.Seed, 10)
	b = append(b, '|')

	s := ec.Sim
	b = append(b, "sim"...)
	b = appendInt(b, s.N)
	b = append(b, "|["...)
	for i, t := range s.Types {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	b = append(b, ']')
	for _, x := range [...]float64{s.Cutoff, s.Dt, s.NoiseVariance, s.InitRadius, s.EquilibriumThreshold} {
		b = append(b, '|')
		b = appendFloat(b, x)
	}
	b = appendInt(b, s.EquilibriumWindow)

	// The observer enters as the %+v text of observer.Config when the
	// recipe was frozen; align.Options then also carried TypeScaleFactor
	// and BruteForceNN, which no pipeline ever set.
	o, icp := p.Observer, p.Observer.Align.ICP
	b = append(b, "|obs|{Align:{ICP:{MaxIterations:"...)
	b = strconv.AppendInt(b, int64(icp.MaxIterations), 10)
	b = append(b, " Tolerance:"...)
	b = appendFloat(b, icp.Tolerance)
	b = append(b, " TypeScaleFactor:0 Restarts:"...)
	b = strconv.AppendInt(b, int64(icp.Restarts), 10)
	b = append(b, " BruteForceNN:false} Reference:"...)
	b = strconv.AppendInt(b, int64(o.Align.Reference), 10)
	b = append(b, " Workers:"...)
	b = strconv.AppendInt(b, int64(o.Align.Workers), 10)
	b = append(b, "} KMeansK:"...)
	b = strconv.AppendInt(b, int64(o.KMeansK), 10)
	b = append(b, " Seed:"...)
	b = strconv.AppendUint(b, o.Seed, 10)
	b = append(b, " SkipAlign:"...)
	b = strconv.AppendBool(b, o.SkipAlign)

	// The force enters as the %+v text of its forces.Spec, written from
	// the matrices themselves; the family's unused matrices print empty.
	switch f := s.Force.(type) {
	case *forces.F1:
		b = append(b, "}|force|{Family:F1 K:"...)
		b = appendMatrix(b, spans, f.K)
		b = append(b, " R:"...)
		b = appendMatrix(b, spans, f.R)
		b = append(b, " Sigma:[] Tau:[]}"...)
	case *forces.F2:
		b = append(b, "}|force|{Family:F2 K:"...)
		b = appendMatrix(b, spans, f.K)
		b = append(b, " R:[] Sigma:"...)
		b = appendMatrix(b, spans, f.Sigma)
		b = append(b, " Tau:"...)
		b = appendMatrix(b, spans, f.Tau)
		b = append(b, '}')
	default:
		return b, false
	}

	// The approximate tier changes the numbers, so it keys the
	// fingerprint — but only when enabled: exact-tier pipelines (tier
	// absent or "exact") must keep hashing the frozen legacy recipe
	// byte-for-byte, or every checkpoint on disk would be orphaned.
	if p.Tier == experiment.TierApprox {
		b = append(b, "|tier|"...)
		b = append(b, p.Tier...)
		b = appendInt(b, p.Subsample)
	}
	return b, true
}

// appendInt appends "|" and x in decimal.
func appendInt(b []byte, x int) []byte {
	return strconv.AppendInt(append(b, '|'), int64(x), 10)
}

// appendBool appends "|" and x as true or false.
func appendBool(b []byte, x bool) []byte {
	return strconv.AppendBool(append(b, '|'), x)
}

// appendFloat appends x as fmt's %g and %v print a float64.
func appendFloat(b []byte, x float64) []byte {
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

// span is where one matrix entry's text lies in the key.
type span struct{ lo, hi int }

// appendMatrix appends m's rows as fmt's %v prints a [][]float64:
// "[[a b] [c d]]". A Matrix is symmetric bit for bit by construction —
// Set writes (a,b) and (b,a) from one value, and the only other writer,
// ConstantMatrix, gives every entry one value — so only the upper
// triangle is formatted: entry (a,c) below the diagonal copies the bytes
// of (c,a), written in an earlier row, whose place spans records. spans
// is scratch, used if it has room for m's entries.
func appendMatrix(b []byte, spans []span, m forces.Matrix) []byte {
	l := m.Len()
	if l*l > cap(spans) {
		spans = make([]span, l*l)
	}
	spans = spans[:l*l]
	b = append(b, '[')
	for a := 0; a < l; a++ {
		if a > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		for c := 0; c < l; c++ {
			if c > 0 {
				b = append(b, ' ')
			}
			if c < a {
				e := spans[c*l+a]
				b = append(b, b[e.lo:e.hi]...)
				continue
			}
			lo := len(b)
			b = appendFloat(b, m.At(a, c))
			spans[a*l+c] = span{lo, len(b)}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}
