package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"orpheusdb/internal/bitmap"
	"orpheusdb/internal/engine"
	"orpheusdb/internal/merge"
	"orpheusdb/internal/obs"
	"orpheusdb/internal/vgraph"
)

// Three-way merge over the version DAG (the branch workflow's defining
// operation): discover the lowest common ancestor, compute the merged record
// set with bitmap algebra, detect record-level primary-key conflicts on the
// changed slices only, and commit the result as a merge version with both
// sides as parents. Because every merged record already exists in one of the
// parents, the commit bypasses content-hash rematching and stores the exact
// record ids the bitmap formula produced — so the merge version's rlist is,
// by construction, the algebraic result.

// MergeOptions configures CVD.Merge.
type MergeOptions struct {
	// Policy resolves record-level conflicts (default merge.PolicyFail).
	Policy merge.Policy
	// Message is the merge version's commit message; a default naming both
	// sides is generated when empty.
	Message string
}

// MergeResult reports one merge.
type MergeResult struct {
	// Version is the resulting version: a fresh merge commit, Ours when
	// already up to date, Theirs on a fast-forward, 0 when PolicyFail
	// surfaced conflicts.
	Version      vgraph.VersionID
	Ours, Theirs vgraph.VersionID
	// Base is the lowest common ancestor (0 when the sides share no
	// ancestry and the merge ran against an empty base).
	Base vgraph.VersionID
	// UpToDate marks a no-op merge: Theirs is already an ancestor of Ours.
	UpToDate bool
	// FastForward marks a merge where Ours is an ancestor of Theirs: no
	// merge commit is needed, the result is Theirs itself.
	FastForward bool
	// Conflicts lists the keys both sides changed incompatibly; non-empty
	// with a zero Version means the merge was refused (PolicyFail).
	Conflicts []merge.Conflict
}

// ConflictError is returned when PolicyFail meets record-level conflicts.
// The failed MergeResult (with its conflict report) rides along.
type ConflictError struct {
	CVD    string
	Result *MergeResult
}

func (e *ConflictError) Error() string {
	keys := make([]string, 0, len(e.Result.Conflicts))
	for _, c := range e.Result.Conflicts {
		keys = append(keys, fmt.Sprintf("%s (%s)", c.Key, c.Kind()))
		if len(keys) == 5 && len(e.Result.Conflicts) > 5 {
			keys = append(keys, "...")
			break
		}
	}
	return fmt.Sprintf("core: %s: merge of %d into %d has %d conflict(s): %s",
		e.CVD, e.Result.Theirs, e.Result.Ours, len(e.Result.Conflicts), strings.Join(keys, ", "))
}

// Merge three-way-merges theirs into ours. Up-to-date and fast-forward cases
// produce no new version; otherwise the merged record set is committed with
// parents (ours, theirs). With PolicyFail and conflicts present the error is
// a *ConflictError carrying the report. LCA discovery, the bitmap merge
// formula (including record fetch and conflict detection), and the merge
// commit each contribute a span when ctx carries a trace. It is PlanMerge
// and InstallMerge back to back.
func (c *CVD) Merge(ctx context.Context, ours, theirs vgraph.VersionID, opts MergeOptions) (*MergeResult, error) {
	p, err := c.PlanMerge(ctx, ours, theirs, opts)
	if err != nil {
		if p != nil {
			return p.Result, err
		}
		return nil, err
	}
	if err := c.InstallMerge(ctx, p); err != nil {
		return nil, err
	}
	return p.Result, nil
}

// MergePlan is a merge worked out against committed state without changing
// any of it (see CommitPlan). Result is the report the merge returns; when
// it is UpToDate or FastForward there is no version to install.
type MergePlan struct {
	Result *MergeResult
	Time   time.Time
	// Members is the merge version's rlist, built once here and shared by
	// the WAL record, the model and the metadata mirror. Never mutate it.
	Members *bitmap.Bitmap

	message string
	all     []Record
}

// NewVersion reports whether installing the plan adds a merge version.
func (p *MergePlan) NewVersion() bool { return !p.Result.UpToDate && !p.Result.FastForward }

// PlanMerge discovers the lowest common ancestor, evaluates the bitmap merge
// formula with record-level conflict detection, and fetches the merged
// records, predicting the merge version's id. Like PlanCommit it only reads
// the CVD. Under PolicyFail with conflicts the error is a *ConflictError and
// the returned plan carries the report.
func (c *CVD) PlanMerge(ctx context.Context, ours, theirs vgraph.VersionID, opts MergeOptions) (*MergePlan, error) {
	if _, err := c.vm.info(ours); err != nil {
		return nil, err
	}
	if _, err := c.vm.info(theirs); err != nil {
		return nil, err
	}
	res := &MergeResult{Ours: ours, Theirs: theirs}
	p := &MergePlan{Result: res}
	_, lcaSpan := obs.StartSpan(ctx, "merge.lca")
	ancO, err := c.ancestrySet(ours)
	if err != nil {
		lcaSpan.End()
		return nil, err
	}
	ancT, err := c.ancestrySet(theirs)
	if err != nil {
		lcaSpan.End()
		return nil, err
	}
	if ancO.Contains(int64(theirs)) {
		lcaSpan.End()
		res.Version, res.Base, res.UpToDate = ours, theirs, true
		return p, nil
	}
	if ancT.Contains(int64(ours)) {
		lcaSpan.End()
		res.Version, res.Base, res.FastForward = theirs, ours, true
		return p, nil
	}
	levels := c.vm.levels()
	base, ok := merge.LCAFromSets(ancO, ancT, func(v vgraph.VersionID) int { return levels[v] })
	lcaSpan.End()
	_, formulaSpan := obs.StartSpan(ctx, "merge.formula")
	baseSet := bitmap.New()
	if ok {
		res.Base = base
		if baseSet, err = c.vm.rlistSet(base); err != nil {
			formulaSpan.End()
			return nil, err
		}
	}
	oursSet, err := c.vm.rlistSet(ours)
	if err != nil {
		formulaSpan.End()
		return nil, err
	}
	theirsSet, err := c.vm.rlistSet(theirs)
	if err != nil {
		formulaSpan.End()
		return nil, err
	}
	pos := c.pkPositions()
	mres, err := merge.Merge(merge.Input{
		Base:   baseSet,
		Ours:   oursSet,
		Theirs: theirsSet,
		Keyed:  len(pos) > 0,
		Policy: opts.Policy,
		Fetch: func(set *bitmap.Bitmap) ([]merge.Record, error) {
			recs, err := c.fetchRecords(set)
			if err != nil {
				return nil, err
			}
			out := make([]merge.Record, len(recs))
			for i, r := range recs {
				out[i] = merge.Record{RID: int64(r.RID), Row: r.Data}
				if len(pos) > 0 {
					vals := make([]engine.Value, len(pos))
					disp := make([]string, len(pos))
					for j, p := range pos {
						vals[j] = r.Data[p]
						disp[j] = r.Data[p].String()
					}
					out[i].Key = engine.EncodeKey(vals...)
					out[i].Display = strings.Join(disp, ",")
				}
			}
			return out, nil
		},
	})
	formulaSpan.End()
	if err != nil {
		return nil, err
	}
	res.Conflicts = mres.Conflicts
	if mres.Members == nil {
		return p, &ConflictError{CVD: c.name, Result: res}
	}
	_, fetchSpan := obs.StartSpan(ctx, "merge.fetch")
	err = c.planMerged(p, mres.Members, opts.Message)
	fetchSpan.End()
	if err != nil {
		return nil, err
	}
	p.Time = c.Clock()
	return p, nil
}

// planMerged fetches the exact merged record set the merge version will
// hold. All records already exist in a parent, so no fresh rows are handed
// to the model and no record ids are allocated: the version's rlist is
// precisely the merged bitmap.
func (c *CVD) planMerged(p *MergePlan, members *bitmap.Bitmap, msg string) error {
	res := p.Result
	all, err := c.fetchRecords(members)
	if err != nil {
		return err
	}
	// Defensive primary-key check: conflict resolution should leave exactly
	// one record per key, so a violation here is a merge-planner bug, not a
	// user error.
	if pos := c.pkPositions(); len(pos) > 0 {
		seen := make(map[string]bool, len(all))
		for _, r := range all {
			vals := make([]engine.Value, len(pos))
			for j, p := range pos {
				vals[j] = r.Data[p]
			}
			k := engine.EncodeKey(vals...)
			if seen[k] {
				return fmt.Errorf("core: %s: merged record set violates primary key at %q", c.name, k)
			}
			seen[k] = true
		}
	}
	if msg == "" {
		msg = fmt.Sprintf("merge version %d into %d", res.Theirs, res.Ours)
	}
	p.message = msg
	p.all = all
	// The canonical form of the algebraic result (set algebra may leave
	// non-canonical containers behind).
	p.Members = bitmap.FromSlice(ridsOf(all))
	res.Version = c.vm.nextV
	return nil
}

// InstallMerge makes a planned merge version visible: the model write and
// the version metadata, after checking that the plan's version id is still
// the next one to allocate. Plans without a new version install nothing.
func (c *CVD) InstallMerge(ctx context.Context, p *MergePlan) error {
	if !p.NewVersion() {
		return nil
	}
	res := p.Result
	if err := c.checkTurn(res.Version, nil); err != nil {
		return err
	}
	parents := []vgraph.VersionID{res.Ours, res.Theirs}
	vid := c.vm.allocVersion()
	_, commitSpan := obs.StartSpan(ctx, "merge.commit")
	defer commitSpan.End()
	if err := c.model.Commit(vid, parents, p.all, p.Members); err != nil {
		return err
	}
	info := &VersionInfo{
		ID:           vid,
		Parents:      parents,
		CheckoutTime: p.Time,
		CommitTime:   p.Time,
		Message:      p.message,
		Attributes:   append([]int64(nil), c.schema...),
		NumRecords:   len(p.all),
	}
	if err := c.vm.add(info, p.Members); err != nil {
		return err
	}
	c.heat.RecordMerge(res.Ours, res.Theirs)
	return nil
}

// MergeBase returns the lowest common ancestor of a and b (ok=false when
// they share no ancestry). Ancestry comes from persisted branch lineage
// bitmaps when a side is a branch head, from the metadata mirror otherwise.
func (c *CVD) MergeBase(a, b vgraph.VersionID) (vgraph.VersionID, bool, error) {
	ancA, err := c.ancestrySet(a)
	if err != nil {
		return 0, false, err
	}
	ancB, err := c.ancestrySet(b)
	if err != nil {
		return 0, false, err
	}
	levels := c.vm.levels()
	base, ok := merge.LCAFromSets(ancA, ancB, func(v vgraph.VersionID) int { return levels[v] })
	return base, ok, nil
}
