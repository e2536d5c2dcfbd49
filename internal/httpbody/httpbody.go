// Package httpbody decodes bounded JSON request bodies: the one decode
// and classify step behind the routing daemon's and the cluster
// members' handlers, so both answer an oversized or malformed body the
// same way. Each caller keeps its own reply writer.
package httpbody

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Decode decodes r's JSON body into v, reading at most limit bytes. It
// returns a nil error when v was decoded. Otherwise it returns the
// status to answer with and an error naming what failed: 413 for a
// body past the limit (refused unread when its declared length is),
// 400 for a malformed one.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) (int, error) {
	if r.ContentLength > limit {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("%s over %d bytes", what, limit)
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return http.StatusOK, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("%s over %d bytes", what, tooLarge.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err)
}
