// Package binning implements the distributed binning scheme of Ratnasamy
// and Shenker used by HIERAS for P2P ring creation (paper §2.2): each node
// measures its latency to a well-known set of landmark nodes, quantises
// each measurement into a small number of levels, and the resulting string
// of levels — the landmark order — names the bin (the lower-layer P2P ring)
// the node belongs to. Nodes with the same order are topologically close.
//
// The paper's two-layer system uses one threshold set, {20, 100}: level 0
// for latencies in [0,20), level 1 for [20,100) and level 2 for >= 100.
// For hierarchies deeper than two layers this package generalises the
// scheme with a Ladder of nested threshold sets: layer l+1 uses a superset
// of layer l's boundaries, so the layer-(l+1) rings always refine the
// layer-l rings.
package binning

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/id"
)

// MaxDepth is the deepest hierarchy either ladder builds: the global ring
// and four lower layers.
const MaxDepth = 5

// MaxLevels bounds how many quantisation levels a threshold set may induce
// (one base-36 digit per landmark in the order string).
const MaxLevels = 36

// Thresholds is an ascending list of latency boundaries in milliseconds.
// k boundaries induce k+1 levels: level i covers [t[i-1], t[i]).
type Thresholds []float64

// DefaultThresholds is the paper's level partition: [0,20), [20,100),
// [100, inf).
var DefaultThresholds = Thresholds{20, 100}

// Validate reports an error if t is empty, unsorted, non-positive, or
// induces more than MaxLevels levels.
func (t Thresholds) Validate() error {
	if len(t) == 0 {
		return fmt.Errorf("binning: empty threshold set")
	}
	if len(t)+1 > MaxLevels {
		return fmt.Errorf("binning: %d thresholds induce more than %d levels", len(t), MaxLevels)
	}
	prev := 0.0
	for i, b := range t {
		if math.IsNaN(b) || math.IsInf(b, 0) || b <= prev {
			return fmt.Errorf("binning: thresholds must be positive and strictly ascending (index %d: %v)", i, b)
		}
		prev = b
	}
	return nil
}

// Levels returns the number of quantisation levels t induces.
func (t Thresholds) Levels() int { return len(t) + 1 }

// Level quantises a latency: the number of boundaries <= lat.
func (t Thresholds) Level(lat float64) int {
	// Threshold sets are tiny (2-12 entries); linear scan beats binary
	// search here and is obviously correct.
	for i, b := range t {
		if lat < b {
			return i
		}
	}
	return len(t)
}

// levelDigit renders a level as one base-36 character.
func levelDigit(l int) byte {
	if l < 10 {
		return byte('0' + l)
	}
	return byte('a' + l - 10)
}

// Order computes the landmark order string for a node's measured latencies
// to each landmark, one digit per landmark. This is the ring name of the
// node's bin (e.g. "1012" in the paper's Table 1).
func Order(lats []float64, t Thresholds) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	if len(lats) == 0 {
		return "", fmt.Errorf("binning: no landmark latencies")
	}
	var sb strings.Builder
	sb.Grow(len(lats))
	for i, lat := range lats {
		if math.IsNaN(lat) || lat < 0 {
			return "", fmt.Errorf("binning: invalid latency %v to landmark %d", lat, i)
		}
		sb.WriteByte(levelDigit(t.Level(lat)))
	}
	return sb.String(), nil
}

// RingID derives a ring's identifier, which its ring table is stored
// under (paper §3.1): the hash of its name, qualified by layer so equal
// order strings in different layers name distinct rings.
func RingID(layer int, name string) id.ID {
	return id.HashString(fmt.Sprintf("ring:%d:%s", layer, name))
}

// DropLandmark removes the digit for a failed landmark from an order
// string, implementing the paper's landmark-failure handling (§2.3):
// previously binned nodes only drop the failed landmark from their order
// information. It returns the order unchanged if i is out of range.
func DropLandmark(order string, i int) string {
	if i < 0 || i >= len(order) {
		return order
	}
	return order[:i] + order[i+1:]
}

// AdaptiveThresholds derives a threshold set from measured latency samples
// instead of the paper's fixed {20, 100}: the boundaries sit at evenly
// spaced quantiles of the sample distribution, so each level holds roughly
// the same probability mass regardless of the underlay's latency scale.
// This makes binning topology-agnostic — useful on underlays whose
// latencies do not resemble the GT-ITM constants the fixed thresholds were
// chosen for. levels must be in [2, MaxLevels]; samples must be
// non-negative latencies.
func AdaptiveThresholds(samples []float64, levels int) (Thresholds, error) {
	if levels < 2 || levels > MaxLevels {
		return nil, fmt.Errorf("binning: adaptive levels must be in [2,%d], got %d", MaxLevels, levels)
	}
	if len(samples) < levels {
		return nil, fmt.Errorf("binning: need at least %d samples for %d levels, got %d",
			levels, levels, len(samples))
	}
	sorted := make([]float64, 0, len(samples))
	for _, s := range samples {
		if math.IsNaN(s) || s < 0 {
			return nil, fmt.Errorf("binning: invalid latency sample %v", s)
		}
		sorted = append(sorted, s)
	}
	sort.Float64s(sorted)
	t := make(Thresholds, 0, levels-1)
	prev := 0.0
	for i := 1; i < levels; i++ {
		pos := float64(i) / float64(levels) * float64(len(sorted)-1)
		b := sorted[int(pos)]
		if b <= prev {
			// Degenerate sample mass; nudge to keep strict ascent.
			b = prev + math.Max(prev*1e-6, 1e-9)
		}
		t = append(t, b)
		prev = b
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// AdaptiveLadder builds a nested threshold ladder from latency samples:
// layer 2 uses 3 levels, and each deeper layer doubles the level count.
// Because every layer's quantile grid contains the previous layer's
// (i/3 ⊂ i/6 ⊂ i/12 …, all cut from one sorted sample), the nesting
// property holds and deeper rings refine shallower ones.
func AdaptiveLadder(samples []float64, depth int) (Ladder, error) {
	if depth < 2 || depth > MaxDepth {
		return nil, fmt.Errorf("binning: adaptive ladder depth must be in [2,%d], got %d", MaxDepth, depth)
	}
	// Build the deepest layer once, then derive shallower layers by taking
	// every second boundary — nesting is then exact by construction, even
	// when duplicate sample mass forces boundary nudges.
	deepestLevels := 3 << (depth - 2)
	deepest, err := AdaptiveThresholds(samples, deepestLevels)
	if err != nil {
		return nil, err
	}
	ladder := make(Ladder, depth-1)
	ladder[depth-2] = deepest
	for l := depth - 3; l >= 0; l-- {
		finer := ladder[l+1]
		coarser := make(Thresholds, 0, (len(finer)+1)/2)
		for i := 1; i < len(finer); i += 2 {
			coarser = append(coarser, finer[i])
		}
		ladder[l] = coarser
	}
	if err := ladder.Validate(); err != nil {
		return nil, fmt.Errorf("binning: adaptive ladder not nested: %w", err)
	}
	return ladder, nil
}

// Ladder holds one threshold set per lower layer: Ladder[0] names layer-2
// rings, Ladder[1] layer-3 rings, and so on. (Layer 1 is the global ring
// and needs no binning.)
type Ladder []Thresholds

// DefaultLadder returns the nested threshold ladder for a HIERAS system of
// the given hierarchy depth (2..MaxDepth). Depth 2 reproduces the paper
// exactly.
func DefaultLadder(depth int) (Ladder, error) {
	full := [MaxDepth - 1]Thresholds{
		{20, 100},
		{10, 20, 50, 100, 200},
		{5, 10, 20, 35, 50, 100, 200, 400},
		{2.5, 5, 10, 20, 35, 50, 75, 100, 150, 200, 400, 800},
	}
	if depth < 2 || depth > MaxDepth {
		return nil, fmt.Errorf("binning: hierarchy depth must be in [2,%d], got %d", MaxDepth, depth)
	}
	return Ladder(full[:depth-1]), nil
}

// Validate checks every threshold set and the nesting property: each
// layer's boundaries must be a superset of the previous layer's, which
// guarantees rings refine as the hierarchy deepens.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("binning: empty ladder")
	}
	for i, t := range l {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", i+2, err)
		}
		if i > 0 && !isSubset(l[i-1], t) {
			return fmt.Errorf("binning: layer %d thresholds do not refine layer %d", i+2, i+1)
		}
	}
	return nil
}

func isSubset(sub, super Thresholds) bool {
	for _, b := range sub {
		j := sort.SearchFloat64s(super, b)
		if j >= len(super) || super[j] != b {
			return false
		}
	}
	return true
}

// Depth returns the hierarchy depth the ladder describes (layers including
// the global ring).
func (l Ladder) Depth() int { return len(l) + 1 }

// RingNames computes a node's ring name for every lower layer, given its
// measured latencies to the landmarks. RingNames(lats)[i] names the node's
// layer-(i+2) ring.
func RingNames(lats []float64, l Ladder) ([]string, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	out := make([]string, len(l))
	for i, t := range l {
		name, err := Order(lats, t)
		if err != nil {
			return nil, err
		}
		out[i] = name
	}
	return out, nil
}
