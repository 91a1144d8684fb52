package infotheory

// Estimator evaluates a multi-information estimate in bits on a dataset.
// The stock choices are Engine.KSGVariantEstimator and closures over
// Engine.MultiInfoKernel and MultiInfoBinned; Decompose applies the same
// estimator to every term so the decomposition is internally consistent.
type Estimator func(*Dataset) float64

// Decomposition is the split of total multi-information over a partition of
// the observer variables into coarse-grained groups (Eq. 5):
//
//	I(X₁,…,X_n) = I(X̃₁,…,X̃_k) + Σ_g I(members of group g)
//
// Between is the first term (organisation only explainable as interaction
// between coarse observers — in the paper's Fig. 11, between particle
// types); Within[g] are the per-group terms. The identity is exact for
// plug-in estimates on discrete data and holds approximately for the
// continuous estimators.
type Decomposition struct {
	Between float64
	Within  []float64
}

// Total returns Between + Σ Within, the reconstructed total
// multi-information.
func (d Decomposition) Total() float64 {
	t := d.Between
	for _, w := range d.Within {
		t += w
	}
	return t
}

// Normalized returns the decomposition scaled so that Total() == 1
// (the presentation of Fig. 11). A zero total returns the decomposition
// unchanged.
func (d Decomposition) Normalized() Decomposition {
	t := d.Total()
	if t == 0 {
		return d
	}
	out := Decomposition{Between: d.Between / t, Within: make([]float64, len(d.Within))}
	for g, w := range d.Within {
		out.Within[g] = w / t
	}
	return out
}

// Decompose evaluates the decomposition of the dataset's multi-information
// over the given variable groups with the given estimator. Groups with a
// single member have zero within-group multi-information by definition.
func Decompose(d *Dataset, groups [][]int, est Estimator) Decomposition {
	out := Decomposition{Within: make([]float64, len(groups))}
	out.Between = est(d.Grouped(groups))
	for g, members := range groups {
		if len(members) < 2 {
			continue
		}
		out.Within[g] = est(d.Select(members))
	}
	return out
}

// GroupsByLabel partitions variable indices 0..len(labels)-1 by their
// label value (e.g. particle type), returning one group per distinct label
// in increasing label order. It is the standard grouping for the per-type
// decomposition of Sec. 6.1.1.
func GroupsByLabel(labels []int) [][]int {
	maxLabel := -1
	for _, t := range labels {
		if t > maxLabel {
			maxLabel = t
		}
	}
	byLabel := make([][]int, maxLabel+1)
	for v, t := range labels {
		byLabel[t] = append(byLabel[t], v)
	}
	var out [][]int
	for _, g := range byLabel {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}
