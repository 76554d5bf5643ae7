package orpheusdb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"orpheusdb/internal/core"
	"orpheusdb/internal/merge"
	"orpheusdb/internal/vgraph"
	"orpheusdb/internal/wal"
)

// Branch & merge: the git-style named workflow over a dataset's version DAG.
// A branch is a named head version plus a persisted lineage bitmap; merging
// reconciles two divergent versions three-way against their lowest common
// ancestor using bitmap algebra over the versions' rlists, with record-level
// primary-key conflict detection and pluggable resolution. Every branch
// mutation and merge is WAL-logged like any other store mutation — a merge,
// like a commit, before it becomes visible — and merge commits invalidate
// the checkout cache the same way plain commits do.

// Re-exported branch/merge identifiers.
type (
	// BranchInfo describes one named branch of a dataset.
	BranchInfo = core.BranchInfo
	// MergePolicy selects conflict resolution (fail/ours/theirs).
	MergePolicy = merge.Policy
	// MergeResult reports a merge: resulting version, base, conflict list.
	MergeResult = core.MergeResult
	// MergeConflict is one record-level conflict in a merge report.
	MergeConflict = merge.Conflict
	// MergeConflictError is the error PolicyFail returns when conflicts
	// exist; it carries the full MergeResult report.
	MergeConflictError = core.ConflictError
)

// Merge conflict-resolution policies, re-exported.
const (
	MergeFail   = merge.PolicyFail
	MergeOurs   = merge.PolicyOurs
	MergeTheirs = merge.PolicyTheirs
)

// ParseMergePolicy parses "fail", "ours", or "theirs".
func ParseMergePolicy(s string) (MergePolicy, error) { return merge.ParsePolicy(s) }

// CreateBranch registers a named branch pointing at version at (0 means the
// dataset's latest version). Branch names share reference slots with version
// ids, so purely numeric names are rejected.
func (d *Dataset) CreateBranch(name string, at VersionID) (*BranchInfo, error) {
	if err := d.store.writable(); err != nil {
		return nil, err
	}
	d.store.ioMu.RLock()
	defer d.store.ioMu.RUnlock()
	d.lock()
	defer d.unlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	if at == 0 {
		if at = d.cvd.LatestVersion(); at == 0 {
			return nil, fmt.Errorf("orpheusdb: dataset %q has no versions to branch from", d.cvd.Name())
		}
	}
	b, err := d.cvd.CreateBranch(name, at)
	if err != nil {
		return nil, err
	}
	d.store.db.Stats().BranchCreates.Add(1)
	if err := d.store.logMutation(&wal.Record{
		Type:      wal.TypeBranchCreate,
		Dataset:   d.cvd.Name(),
		Branch:    name,
		Version:   int64(at),
		TimeNanos: b.CreatedAt.UnixNano(),
	}); err != nil {
		return b, err
	}
	d.store.scheduleSave()
	return b, nil
}

// Branches lists the dataset's branches sorted by name. The BranchInfo
// values (including their lineage bitmaps) are shared and must be treated as
// immutable.
func (d *Dataset) Branches() []*BranchInfo {
	d.rlock()
	defer d.mu.RUnlock()
	return d.cvd.Branches()
}

// Branch returns one branch by name.
func (d *Dataset) Branch(name string) (*BranchInfo, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return nil, err
	}
	return d.cvd.Branch(name)
}

// DeleteBranch removes a branch; the versions it pointed at are untouched.
func (d *Dataset) DeleteBranch(name string) error {
	if err := d.store.writable(); err != nil {
		return err
	}
	d.store.ioMu.RLock()
	defer d.store.ioMu.RUnlock()
	d.lock()
	defer d.unlock()
	if err := d.aliveLocked(); err != nil {
		return err
	}
	if err := d.cvd.DeleteBranch(name); err != nil {
		return err
	}
	if err := d.store.logMutation(&wal.Record{
		Type:    wal.TypeBranchDelete,
		Dataset: d.cvd.Name(),
		Branch:  name,
	}); err != nil {
		return err
	}
	d.store.scheduleSave()
	return nil
}

// ResolveRef resolves a version reference — a decimal version id or a branch
// name (yielding the branch head).
func (d *Dataset) ResolveRef(ref string) (VersionID, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return 0, err
	}
	return d.cvd.ResolveRef(ref)
}

// MergeBase returns the lowest common ancestor of two version references
// (ok=false when they share no ancestry).
func (d *Dataset) MergeBase(oursRef, theirsRef string) (VersionID, bool, error) {
	d.rlock()
	defer d.mu.RUnlock()
	if err := d.aliveLocked(); err != nil {
		return 0, false, err
	}
	ours, err := d.cvd.ResolveRef(oursRef)
	if err != nil {
		return 0, false, err
	}
	theirs, err := d.cvd.ResolveRef(theirsRef)
	if err != nil {
		return 0, false, err
	}
	return d.cvd.MergeBase(ours, theirs)
}

// Merge three-way-merges theirsRef into oursRef. Either reference may be a
// version id or a branch name; when oursRef names a branch, the branch head
// advances to the merge result (including fast-forwards). A true merge
// produces a new version with both sides as parents, whose record set is the
// bitmap formula base-kept ∪ ours-added ∪ theirs-added with deletions on
// either side honored; record-level conflicts (both sides changed the same
// primary key differently) are resolved per policy, or reported via a
// *MergeConflictError under MergeFail — the returned MergeResult carries the
// conflict report either way.
func (d *Dataset) Merge(oursRef, theirsRef string, policy MergePolicy, msg string) (*MergeResult, error) {
	return d.MergeCtx(context.Background(), oursRef, theirsRef, policy, msg)
}

// MergeCtx is Merge with trace propagation and latency observation: the LCA
// discovery, bitmap merge formula, WAL append and install contribute nested
// spans when ctx carries a trace, and the end-to-end latency lands in the
// merge histogram. Like CommitCtx, a merge is planned under the dataset lock
// held shared, logged, and only then installed — the merge version and any
// branch advance, fast-forwards included — in the one exclusive section.
func (d *Dataset) MergeCtx(ctx context.Context, oursRef, theirsRef string, policy MergePolicy, msg string) (*MergeResult, error) {
	start := time.Now()
	defer func() { d.store.obs.mergeSeconds.ObserveDuration(time.Since(start)) }()
	// Trim up front so branch detection below sees exactly the form
	// ResolveRef resolves (a padded branch ref must still advance it).
	oursRef = strings.TrimSpace(oursRef)
	theirsRef = strings.TrimSpace(theirsRef)
	if err := d.store.writable(); err != nil {
		return nil, err
	}
	d.store.ioMu.RLock()
	defer d.store.ioMu.RUnlock()
	writerWait := d.waitWriter()
	defer d.wmu.Unlock()
	d.mu.RLock() // never waits on an exclusive holder: they all hold wmu
	p, rec, err := d.planMerge(ctx, oursRef, theirsRef, policy, msg)
	d.mu.RUnlock()
	var res *MergeResult
	if p != nil {
		res = p.Result
	}
	if err != nil || rec == nil {
		return res, err // refused, failed, or nothing to change
	}
	err = d.logAndInstall(ctx, "merge.install", writerWait, rec, func(ctx context.Context) error {
		if err := d.cvd.InstallMerge(ctx, p); err != nil {
			return err
		}
		if rec.Branch == "" {
			return nil
		}
		_, err := d.cvd.AdvanceBranch(rec.Branch, res.Version)
		return err
	})
	if err != nil {
		return res, err
	}
	if p.NewVersion() {
		d.store.wakeOptimizer()
	}
	return res, nil
}

// planMerge resolves the references and plans the merge under the dataset
// lock held shared. rec is the WAL record to log — a merge record for a
// true merge, a branch-advance record for a fast-forward into a branch —
// or nil when the merge changes nothing.
func (d *Dataset) planMerge(ctx context.Context, oursRef, theirsRef string, policy MergePolicy, msg string) (*core.MergePlan, *wal.Record, error) {
	if err := d.aliveLocked(); err != nil {
		return nil, nil, err
	}
	ours, err := d.cvd.ResolveRef(oursRef)
	if err != nil {
		return nil, nil, err
	}
	theirs, err := d.cvd.ResolveRef(theirsRef)
	if err != nil {
		return nil, nil, err
	}
	oursBranch := ""
	if b, berr := d.cvd.Branch(oursRef); berr == nil {
		oursBranch = b.Name
	}
	stats := d.store.db.Stats()
	stats.Merges.Add(1)
	p, err := d.cvd.PlanMerge(ctx, ours, theirs, core.MergeOptions{Policy: policy, Message: msg})
	if p != nil {
		stats.MergeConflicts.Add(int64(len(p.Result.Conflicts)))
	}
	if err != nil {
		return p, nil, err // conflict-refused or failed merges mutate nothing
	}
	res := p.Result
	switch {
	case res.UpToDate, res.FastForward && oursBranch == "":
		return p, nil, nil
	case res.FastForward:
		return p, &wal.Record{
			Type:    wal.TypeBranchAdvance,
			Dataset: d.cvd.Name(),
			Branch:  oursBranch,
			Version: int64(res.Version),
		}, nil
	}
	return p, &wal.Record{
		Type:      wal.TypeMerge,
		Dataset:   d.cvd.Name(),
		Branch:    oursBranch,
		Msg:       msg,
		Policy:    policy.String(),
		Base:      int64(res.Base),
		Parents:   []int64{int64(ours), int64(theirs)},
		Version:   int64(res.Version),
		TimeNanos: p.Time.UnixNano(),
		Members:   p.Members,
	}, nil
}

// replayMerge re-runs a logged merge with the recorded timestamp and policy,
// verifying the replay reconstructed the acknowledged version id and record
// set, then re-advances the branch head the original merge moved.
func (s *Store) replayMerge(rec *wal.Record) error {
	d, err := s.dataset(rec.Dataset)
	if err != nil {
		return err
	}
	if len(rec.Parents) != 2 {
		return fmt.Errorf("merge record has %d parents, want 2", len(rec.Parents))
	}
	policy, err := merge.ParsePolicy(rec.Policy)
	if err != nil {
		return err
	}
	cvd := d.cvd
	at := time.Unix(0, rec.TimeNanos)
	restore := cvd.Clock
	cvd.Clock = func() time.Time { return at }
	defer func() { cvd.Clock = restore }()

	res, err := cvd.Merge(context.TODO(), vgraph.VersionID(rec.Parents[0]), vgraph.VersionID(rec.Parents[1]),
		core.MergeOptions{Policy: policy, Message: rec.Msg})
	if err != nil {
		return err
	}
	if rec.Version != 0 && int64(res.Version) != rec.Version {
		return fmt.Errorf("merge replay diverged: produced version %d, log says %d", res.Version, rec.Version)
	}
	if rec.Members != nil {
		set, err := cvd.RlistSet(res.Version)
		if err != nil {
			return err
		}
		if !set.Equal(rec.Members) {
			return fmt.Errorf("merge replay diverged: version %d rebuilt %d records, log says %d",
				res.Version, set.Cardinality(), rec.Members.Cardinality())
		}
	}
	if rec.Branch != "" {
		if _, err := cvd.AdvanceBranch(rec.Branch, res.Version); err != nil {
			return err
		}
	}
	return nil
}
