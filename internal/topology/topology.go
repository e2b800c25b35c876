// Package topology models the physical deployment of a sensor network: node
// positions, the radio-range neighbor graph, hop levels from the base
// station, and link qualities.
//
// The paper's evaluation deploys nodes uniformly on an n×n grid with the base
// station (node 0) at the upper-left corner, a 50 ft radio range and 20 ft
// grid spacing; NewGrid reproduces that deployment. Arbitrary deployments can
// be built with New for hand-crafted scenarios such as the Figure 2 worked
// example.
package topology

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a sensor node. The base station is always node 0.
type NodeID int

// BaseStation is the NodeID of the sink.
const BaseStation NodeID = 0

// Point is a 2-D position in feet.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Topology is an immutable deployment: positions, neighbor sets within radio
// range, BFS levels (hop count from the base station) and symmetric link
// qualities. Construct with New or NewGrid.
type Topology struct {
	positions  []Point
	radioRange float64

	neighbors [][]NodeID // sorted by NodeID
	level     []int      // hops from base station; -1 if unreachable
	maxDepth  int

	upper [][]NodeID // neighbors at level-1, sorted by link quality (best first)
	lower [][]NodeID // neighbors at level+1

	quality map[[2]NodeID]float64 // link quality in (0,1], keyed with lo<hi

	// subtreeLo/subtreeHi bound the node IDs in each node's routing-tree
	// subtree (itself included) — the per-child index a TinyDB Semantic
	// Routing Tree maintains to prune the dissemination of node-id-based
	// queries. Intervals may over-cover (IDs are not contiguous within a
	// subtree); SRT accepts such false positives.
	subtreeLo []NodeID
	subtreeHi []NodeID
}

// New builds a topology from explicit positions. positions[0] is the base
// station. radioRange bounds which pairs can communicate directly.
func New(positions []Point, radioRange float64) (*Topology, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("topology: no nodes")
	}
	if radioRange <= 0 {
		return nil, fmt.Errorf("topology: non-positive radio range %v", radioRange)
	}
	t := &Topology{
		positions:  append([]Point(nil), positions...),
		radioRange: radioRange,
		quality:    make(map[[2]NodeID]float64),
	}
	t.buildNeighbors()
	t.buildLevels()
	if err := t.checkConnected(); err != nil {
		return nil, err
	}
	t.buildDAG()
	t.buildSubtrees()
	return t, nil
}

// NewGrid builds the paper's deployment: a side×side grid with the given
// spacing (feet) and radio range (feet), base station at the upper-left
// corner. The paper uses spacing 20 ft and range 50 ft.
func NewGrid(side int, spacing, radioRange float64) (*Topology, error) {
	if side < 1 {
		return nil, fmt.Errorf("topology: grid side %d < 1", side)
	}
	positions := make([]Point, 0, side*side)
	for row := 0; row < side; row++ {
		for col := 0; col < side; col++ {
			positions = append(positions, Point{X: float64(col) * spacing, Y: float64(row) * spacing})
		}
	}
	return New(positions, radioRange)
}

// PaperGrid builds the exact evaluation deployment for n = side² nodes:
// 20 ft spacing, 50 ft radio range.
func PaperGrid(side int) (*Topology, error) {
	return NewGrid(side, 20, 50)
}

// NewRandom builds an irregular deployment: n nodes placed uniformly at
// random in a side×side box (base station at the center), re-drawing up to
// 100 times until the radio graph is connected. Real deployments are rarely
// grids; this exercises the algorithms off the paper's regular topology.
func NewRandom(n int, side, radioRange float64, seed int64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: %d nodes", n)
	}
	rng := newSplitMix(uint64(seed))
	for attempt := 0; attempt < 100; attempt++ {
		positions := make([]Point, 0, n)
		positions = append(positions, Point{X: side / 2, Y: side / 2})
		for i := 1; i < n; i++ {
			positions = append(positions, Point{X: rng.float() * side, Y: rng.float() * side})
		}
		t, err := New(positions, radioRange)
		if err == nil {
			return t, nil
		}
	}
	return nil, fmt.Errorf("topology: no connected random deployment of %d nodes in %.0fx%.0f at range %.0f after 100 draws",
		n, side, side, radioRange)
}

// splitMix is a tiny deterministic PRNG, keeping the package free of
// math/rand (and of the sim package, which would be a dependency cycle).
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed + 0x9E3779B97F4A7C15} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitMix) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (t *Topology) buildNeighbors() {
	n := len(t.positions)
	t.neighbors = make([][]NodeID, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := t.positions[i].Dist(t.positions[j])
			if d <= t.radioRange {
				t.neighbors[i] = append(t.neighbors[i], NodeID(j))
				t.neighbors[j] = append(t.neighbors[j], NodeID(i))
				// Link quality decays with distance; deterministic so the
				// fixed TinyDB routing tree is reproducible.
				q := 1 - 0.5*d/t.radioRange
				t.quality[linkKey(NodeID(i), NodeID(j))] = q
			}
		}
	}
	for i := range t.neighbors {
		sort.Slice(t.neighbors[i], func(a, b int) bool { return t.neighbors[i][a] < t.neighbors[i][b] })
	}
}

func (t *Topology) buildLevels() {
	n := len(t.positions)
	t.level = make([]int, n)
	for i := range t.level {
		t.level[i] = -1
	}
	t.level[BaseStation] = 0
	queue := []NodeID{BaseStation}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.neighbors[u] {
			if t.level[v] == -1 {
				t.level[v] = t.level[u] + 1
				if t.level[v] > t.maxDepth {
					t.maxDepth = t.level[v]
				}
				queue = append(queue, v)
			}
		}
	}
}

func (t *Topology) checkConnected() error {
	for id, l := range t.level {
		if l == -1 {
			return fmt.Errorf("topology: node %d unreachable from base station", id)
		}
	}
	return nil
}

func (t *Topology) buildDAG() {
	n := len(t.positions)
	t.upper = make([][]NodeID, n)
	t.lower = make([][]NodeID, n)
	for i := 0; i < n; i++ {
		u := NodeID(i)
		for _, v := range t.neighbors[i] {
			switch t.level[v] {
			case t.level[u] - 1:
				t.upper[i] = append(t.upper[i], v)
			case t.level[u] + 1:
				t.lower[i] = append(t.lower[i], v)
			}
		}
		// Best link first so "ties are broken by favoring nodes with a more
		// stable link" falls out of iteration order.
		up := t.upper[i]
		sort.Slice(up, func(a, b int) bool {
			qa, qb := t.Quality(u, up[a]), t.Quality(u, up[b])
			if qa != qb {
				return qa > qb
			}
			return up[a] < up[b]
		})
	}
}

// buildSubtrees computes the node-ID interval of every routing-tree
// subtree by folding children into parents in decreasing-level order.
func (t *Topology) buildSubtrees() {
	n := len(t.positions)
	t.subtreeLo = make([]NodeID, n)
	t.subtreeHi = make([]NodeID, n)
	order := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		t.subtreeLo[i] = NodeID(i)
		t.subtreeHi[i] = NodeID(i)
		order = append(order, NodeID(i))
	}
	sort.Slice(order, func(a, b int) bool { return t.level[order[a]] > t.level[order[b]] })
	for _, id := range order {
		if id == BaseStation {
			continue
		}
		p := t.TreeParent(id)
		if t.subtreeLo[id] < t.subtreeLo[p] {
			t.subtreeLo[p] = t.subtreeLo[id]
		}
		if t.subtreeHi[id] > t.subtreeHi[p] {
			t.subtreeHi[p] = t.subtreeHi[id]
		}
	}
}

// SubtreeInterval returns the [lo, hi] node-ID bound of id's routing-tree
// subtree (id included). This is the SRT index used to prune query
// dissemination: a query over node IDs outside the interval has no answer
// node below id.
func (t *Topology) SubtreeInterval(id NodeID) (lo, hi NodeID) {
	return t.subtreeLo[id], t.subtreeHi[id]
}

// Size returns the number of nodes, including the base station.
func (t *Topology) Size() int { return len(t.positions) }

// Position returns the location of node id.
func (t *Topology) Position(id NodeID) Point { return t.positions[id] }

// RadioRange returns the radio range in feet.
func (t *Topology) RadioRange() float64 { return t.radioRange }

// Neighbors returns the nodes within radio range of id, sorted by NodeID.
// The returned slice is shared; callers must not mutate it.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.neighbors[id] }

// Level returns the BFS hop count of id from the base station.
func (t *Topology) Level(id NodeID) int { return t.level[id] }

// MaxDepth returns the deepest level in the network.
func (t *Topology) MaxDepth() int { return t.maxDepth }

// UpperNeighbors returns id's neighbors one level closer to the base
// station, best link quality first. These are the DAG edges of §3.2.2.
func (t *Topology) UpperNeighbors(id NodeID) []NodeID { return t.upper[id] }

// LowerNeighbors returns id's neighbors one level farther from the base
// station.
func (t *Topology) LowerNeighbors(id NodeID) []NodeID { return t.lower[id] }

// Quality returns the symmetric link quality between two neighboring nodes
// in (0,1], or 0 if they are out of range of each other.
func (t *Topology) Quality(a, b NodeID) float64 { return t.quality[linkKey(a, b)] }

// InRange reports whether a and b can communicate directly.
func (t *Topology) InRange(a, b NodeID) bool {
	if a == b {
		return true
	}
	nbs := t.neighbors[a]
	i := sort.Search(len(nbs), func(i int) bool { return nbs[i] >= b })
	return i < len(nbs) && nbs[i] == b
}

// TreeParent returns the TinyDB routing-tree parent of id: the upper-level
// neighbor with the best link quality. The base station has no parent and
// returns -1. This is the fixed, query-ignorant tree the baseline uses.
func (t *Topology) TreeParent(id NodeID) NodeID {
	if id == BaseStation {
		return -1
	}
	up := t.upper[id]
	if len(up) == 0 {
		// Cannot happen in a connected topology: every non-root node has a
		// BFS predecessor.
		return -1
	}
	return up[0]
}

// TreeChildren returns the nodes whose TreeParent is id, sorted by NodeID.
func (t *Topology) TreeChildren(id NodeID) []NodeID {
	var kids []NodeID
	for i := 0; i < t.Size(); i++ {
		child := NodeID(i)
		if child != BaseStation && t.TreeParent(child) == id {
			kids = append(kids, child)
		}
	}
	return kids
}

// LevelSizes returns |N_k| for k = 0..MaxDepth, the quantity Eq. (2) of the
// paper sums over.
func (t *Topology) LevelSizes() []int {
	sizes := make([]int, t.maxDepth+1)
	for _, l := range t.level {
		sizes[l]++
	}
	return sizes
}

// AvgDepth returns the average routing-tree depth d = Σ_k k·|N_k| / |N| over
// the sensor nodes (the base station, at level 0, contributes nothing to the
// numerator but is excluded from the denominator as it is not a sensor).
func (t *Topology) AvgDepth() float64 {
	if t.Size() <= 1 {
		return 0
	}
	sum := 0
	for _, l := range t.level {
		sum += l
	}
	return float64(sum) / float64(t.Size()-1)
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}
