package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	orpheusdb "orpheusdb"
)

// The generator is the benchmark's own: it does not import internal/benchgen,
// so editing that package cannot move the baseline. Everything below is a
// pure function of (seed, scale).

// Shape of the sci dataset at scale 1.0 (ISSUE 11). Only the per-version row
// counts scale; the version tree keeps its 200 versions at every scale so
// the Zipf popularity ranks and the partitioner see the same graph.
const (
	mainlineVersions = 50
	sciBranches      = 10
	branchVersions   = 15
	sciVersions      = mainlineVersions + sciBranches*branchVersions

	fullRowsPerVersion = 40000
	updateShare        = 4500.0 / fullRowsPerVersion
	insertShare        = 500.0 / fullRowsPerVersion
	deleteShare        = 20.0 / fullRowsPerVersion

	workBranches = 8

	zipfS    = 1.1
	hotRanks = 4

	// rowUserBytes is what one generated record counts as user data:
	// four 8-byte numbers and the 16-byte string.
	rowUserBytes = 48

	// The commit_wal tables are the same size at every scale: the workload
	// is about small commits, so there is nothing to scale down.
	smallTables     = 16
	smallTableRows  = 500
	smallUpdateRows = 25
	smallInsertRows = 5
	smallDeleteRows = 5
)

func sciColumns() []orpheusdb.Column {
	return []orpheusdb.Column{
		{Name: "k", Type: orpheusdb.KindInt},
		{Name: "a", Type: orpheusdb.KindInt},
		{Name: "b", Type: orpheusdb.KindInt},
		{Name: "x", Type: orpheusdb.KindFloat},
		{Name: "s", Type: orpheusdb.KindString},
	}
}

// bRange is the domain of column b; query thresholds are drawn from it.
const bRange = 1000

// fingerprint identifies a row set independent of row order: the row count
// and the wrapping sum of the per-row hashes.
type fingerprint struct {
	Rows int
	Sum  uint64
}

func (f *fingerprint) add(h uint64) { f.Rows++; f.Sum += h }

// hashFields hashes one record from its five field values. fingerprintWire
// feeds it the values it read off the wire, so a mismatch in any
// cell of any row changes the fingerprint.
func hashFields(k, a, b int64, x float64, s string) uint64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(k))
	binary.LittleEndian.PutUint64(buf[8:], uint64(a))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(x))
	h := fnv.New64a()
	h.Write(buf[:])
	h.Write([]byte(s))
	// FNV's low bits are weak under addition; one multiply-xorshift round
	// spreads them before the rows are summed.
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return v
}

func hashRow(r orpheusdb.Row) uint64 {
	return hashFields(r[0].I, r[1].I, r[2].I, r[3].F, r[4].S)
}

func fingerprintRows(rows []orpheusdb.Row) fingerprint {
	var f fingerprint
	for _, r := range rows {
		f.add(hashRow(r))
	}
	return f
}

// rowGen makes records with keys no other record of the run has.
type rowGen struct {
	rng     *rand.Rand
	nextKey int64
}

func (g *rowGen) fresh() orpheusdb.Row {
	g.nextKey++
	return g.withKey(g.nextKey)
}

// withKey makes a new record under an existing key: an update.
func (g *rowGen) withKey(k int64) orpheusdb.Row {
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], g.rng.Uint64())
	return orpheusdb.Row{
		orpheusdb.Int(k),
		orpheusdb.Int(g.rng.Int63n(1_000_000)),
		orpheusdb.Int(g.rng.Int63n(bRange)),
		// Multiples of 1/1024 survive the JSON round trip bit for bit.
		orpheusdb.Float(float64(g.rng.Intn(1<<20)) / 1024),
		orpheusdb.String(fmt.Sprintf("%016x", sb)),
	}
}

// mutate derives a child row set from parent: upd rows get new content under
// their key, del rows disappear, ins rows arrive under new keys. It returns
// the child and the number of new records it holds.
func (g *rowGen) mutate(parent []orpheusdb.Row, upd, ins, del int) ([]orpheusdb.Row, int) {
	child := make([]orpheusdb.Row, len(parent), len(parent)+ins)
	copy(child, parent)
	// A partial Fisher-Yates shuffle moves upd+del distinct victims to the
	// front: the first upd are rewritten, the next del dropped.
	n := upd + del
	if n > len(child) {
		n = len(child)
		if upd > n {
			upd = n
		}
	}
	for i := 0; i < n; i++ {
		j := i + g.rng.Intn(len(child)-i)
		child[i], child[j] = child[j], child[i]
	}
	for i := 0; i < upd; i++ {
		child[i] = g.withKey(child[i][0].I)
	}
	child = append(child[:upd], child[n:]...)
	for i := 0; i < ins; i++ {
		child = append(child, g.fresh())
	}
	return child, upd + ins
}

// sciVersion is one version of the generated tree, in commit order.
type sciVersion struct {
	parent int // index of the parent in sciPlan.versions, -1 for the root
	rows   []orpheusdb.Row
	fp     fingerprint
}

// sciPlan is the generated sci dataset: what set-up commits, and the oracle
// the verify pass compares against. Version i is committed i-th, so its
// VersionID is i+1, and Zipf rank r, newest first, is version len-1-r.
type sciPlan struct {
	versions     []sciVersion
	mainlineHead int   // index of the last mainline version
	records      int64 // distinct records across all versions
}

func vidOf(index int) orpheusdb.VersionID { return orpheusdb.VersionID(index + 1) }

// scaled returns the per-version count for a scale-1.0 share, at least 1.
func scaled(scale, share float64) int {
	n := int(math.Round(fullRowsPerVersion * scale * share))
	if n < 1 {
		n = 1
	}
	return n
}

// genSci builds the version tree: a 50-version mainline and ten 15-version
// branches forking from it, committed round-robin over the lanes so that
// "newest" does not mean "last branch". The shape of the tree is the same for
// every seed — the partitioner's layout, and with it storage and checkout
// cost, would otherwise differ between seeds by more than any change under
// test; the seed decides the content of every record and which records each
// commit touches.
func genSci(seed int64, scale float64) *sciPlan {
	rng := rand.New(rand.NewSource(seed))
	g := &rowGen{rng: rng}
	rowsPerVersion := scaled(scale, 1)
	upd, ins, del := scaled(scale, updateShare), scaled(scale, insertShare), scaled(scale, deleteShare)

	p := &sciPlan{}
	root := make([]orpheusdb.Row, rowsPerVersion)
	for i := range root {
		root[i] = g.fresh()
	}
	p.versions = append(p.versions, sciVersion{parent: -1, rows: root, fp: fingerprintRows(root)})
	p.records = int64(rowsPerVersion)

	// lane 0 is the mainline; lane j>0 forks from mainline position forkAt.
	type lane struct {
		head, left, forkAt int
	}
	lanes := []*lane{{head: 0, left: mainlineVersions - 1}}
	mainline := []int{0}
	for j := 1; j <= sciBranches; j++ {
		lanes = append(lanes, &lane{head: -1, left: branchVersions, forkAt: 4*j - 2})
	}
	for len(p.versions) < sciVersions {
		for _, l := range lanes {
			if l.left == 0 || l.forkAt >= len(mainline) {
				continue
			}
			parent := l.head
			if parent < 0 {
				parent = mainline[l.forkAt]
			}
			rows, fresh := g.mutate(p.versions[parent].rows, upd, ins, del)
			p.versions = append(p.versions, sciVersion{parent: parent, rows: rows, fp: fingerprintRows(rows)})
			p.records += int64(fresh)
			l.head = len(p.versions) - 1
			l.left--
			if l == lanes[0] {
				mainline = append(mainline, l.head)
			}
		}
	}
	p.mainlineHead = mainline[len(mainline)-1]
	return p
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s by inverting the
// cumulative weights; math/rand's Zipf cannot take s this close to 1 with an
// offset of exactly 1 rank.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cum[r] = sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}
