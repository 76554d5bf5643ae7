package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
)

// Structured error mapping: every failure leaves the server as a JSON body
//
//	{"error": {"code": "not_found", "message": "core: no CVD \"x\""}}
//
// with an HTTP status matching the code. The core and engine packages signal
// failures with fmt.Errorf rather than sentinel values, so classification
// inspects the message; apiError lets handlers set status and code
// explicitly when they know better (bad input, parse failures).

type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

func badRequest(msg string) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: msg}
}

// classify maps an arbitrary error onto an apiError.
func classify(err error) *apiError {
	if ae, ok := err.(*apiError); ok {
		return ae
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "payload_too_large",
			Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "no CVD") ||
		strings.Contains(msg, "no version") ||
		strings.Contains(msg, "no branch") ||
		strings.Contains(msg, "not in the staging area") ||
		strings.Contains(msg, "was dropped") ||
		strings.Contains(msg, "no table"):
		return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: msg}
	case strings.Contains(msg, "already exists"):
		return &apiError{Status: http.StatusConflict, Code: "already_exists", Message: msg}
	case strings.Contains(msg, "read-only"):
		return &apiError{Status: http.StatusForbidden, Code: "read_only", Message: msg}
	case strings.Contains(msg, "violates primary key") ||
		strings.Contains(msg, "primary key column"):
		return &apiError{Status: http.StatusConflict, Code: "constraint_violation", Message: msg}
	case strings.Contains(msg, "parse") || strings.Contains(msg, "syntax") ||
		strings.Contains(msg, "unexpected"):
		return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: msg}
	}
	return &apiError{Status: http.StatusInternalServerError, Code: "internal", Message: msg}
}

// writeError emits the structured error body.
func writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	_ = json.NewEncoder(w).Encode(map[string]*apiError{"error": ae})
}

// writeJSON emits a small metadata body (row-bearing responses go through
// rowStream). The status is already sent when encoding starts, so a value
// encoding/json refuses or a failed write can only be logged.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("server: writing response body", "status", status, "err", err)
	}
}
