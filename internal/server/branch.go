package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	orpheusdb "orpheusdb"
)

// Branch & merge endpoints: the HTTP face of the git-style branch workflow.
// Merges return the full conflict report; a merge refused under the fail
// policy answers 409 with the report in the error payload, so clients can
// render record-level conflicts and retry with ours/theirs.

type branchJSON struct {
	Name    string `json:"name"`
	Head    int64  `json:"head"`
	Created string `json:"created"`
	// LineageSize is the number of versions on the branch's ancestry
	// (head plus transitive ancestors).
	LineageSize int64 `json:"lineageSize"`
}

func branchToJSON(b *orpheusdb.BranchInfo) branchJSON {
	return branchJSON{
		Name:        b.Name,
		Head:        int64(b.Head),
		Created:     b.CreatedAt.UTC().Format(time.RFC3339Nano),
		LineageSize: b.Lineage.Cardinality(),
	}
}

func (s *Server) handleListBranches(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	branches := d.Branches()
	out := make([]branchJSON, 0, len(branches))
	for _, b := range branches {
		out = append(out, branchToJSON(b))
	}
	writeJSON(w, http.StatusOK, map[string]any{"dataset": d.Name(), "branches": out})
}

func (s *Server) handleCreateBranch(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		Name string `json:"name"`
		// At anchors the branch: a version id or a branch name; empty
		// means the dataset's latest version.
		At string `json:"at"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Name == "" {
		writeError(w, badRequest("name is required"))
		return
	}
	at := orpheusdb.VersionID(0)
	if req.At != "" {
		if at, err = d.ResolveRef(req.At); err != nil {
			writeError(w, err)
			return
		}
	}
	b, err := d.CreateBranch(req.Name, at)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, branchToJSON(b))
}

func (s *Server) handleDeleteBranch(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	if err := d.DeleteBranch(r.PathValue("branch")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// conflictJSON is one record-level conflict in a merge report. Each side
// that exists is a one-row row set, encoded by the row codec.
type conflictJSON struct {
	Key    string          `json:"key"`
	Kind   string          `json:"kind"`
	Base   json.RawMessage `json:"base,omitempty"`
	Ours   json.RawMessage `json:"ours,omitempty"`
	Theirs json.RawMessage `json:"theirs,omitempty"`
}

func conflictsToJSON(conflicts []orpheusdb.MergeConflict) []conflictJSON {
	out := make([]conflictJSON, 0, len(conflicts))
	for _, c := range conflicts {
		cj := conflictJSON{Key: c.Key, Kind: c.Kind()}
		if c.Base != nil {
			cj.Base = appendRows(nil, []orpheusdb.Row{c.Base.Row})
		}
		if c.Ours != nil {
			cj.Ours = appendRows(nil, []orpheusdb.Row{c.Ours.Row})
		}
		if c.Theirs != nil {
			cj.Theirs = appendRows(nil, []orpheusdb.Row{c.Theirs.Row})
		}
		out = append(out, cj)
	}
	return out
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	d, err := s.store.Dataset(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		// Ours is the merge target, Theirs the side merged in; each is a
		// version id or branch name. When Ours names a branch its head
		// advances to the result.
		Ours    string `json:"ours"`
		Theirs  string `json:"theirs"`
		Policy  string `json:"policy"`
		Message string `json:"message"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Ours == "" || req.Theirs == "" {
		writeError(w, badRequest("ours and theirs are required"))
		return
	}
	policy, err := orpheusdb.ParseMergePolicy(req.Policy)
	if err != nil {
		writeError(w, badRequest(err.Error()))
		return
	}
	res, err := d.MergeCtx(r.Context(), req.Ours, req.Theirs, policy, req.Message)
	if err != nil {
		var ce *orpheusdb.MergeConflictError
		if errors.As(err, &ce) {
			// Refused under the fail policy: 409 with the full report so
			// the client can render conflicts and retry with a policy.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": map[string]any{
					"code":      "merge_conflict",
					"message":   err.Error(),
					"conflicts": conflictsToJSON(res.Conflicts),
				},
			})
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dataset":     d.Name(),
		"version":     int64(res.Version),
		"base":        int64(res.Base),
		"ours":        int64(res.Ours),
		"theirs":      int64(res.Theirs),
		"upToDate":    res.UpToDate,
		"fastForward": res.FastForward,
		"conflicts":   conflictsToJSON(res.Conflicts),
	})
}
