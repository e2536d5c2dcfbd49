package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodyLimits table-tests the body ceilings of the hot endpoints. A
// valid body is served; a truncated one answers 400; one past the
// endpoint's ceiling answers 413, even when it is valid JSON (leading
// whitespace pads it). After every rejection the deployment keeps its
// epoch and keeps routing.
func TestBodyLimits(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 40}, K: 3, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	epoch := func() int64 {
		var gr GraphReply
		if err := json.Unmarshal(serve(http.MethodGet, "/graph", "").Body.Bytes(), &gr); err != nil {
			t.Fatal(err)
		}
		return gr.Epoch
	}
	pad := func(limit int, body string) string { return strings.Repeat(" ", limit) + body }

	const (
		route = `{"s":0,"t":5}`
		batch = `{"pairs":[[0,5],[3,9]]}`
		patch = `{"deltas":[{"op":"add-edge","u":0,"v":20}]}`
	)
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"route/valid", http.MethodPost, "/route", route, http.StatusOK},
		{"route/truncated", http.MethodPost, "/route", route[:9], http.StatusBadRequest},
		{"route/at-limit", http.MethodPost, "/route", pad(maxRouteBody-len(route), route), http.StatusOK},
		{"route/oversized", http.MethodPost, "/route", pad(maxRouteBody, route), http.StatusRequestEntityTooLarge},
		{"batch/valid", http.MethodPost, "/batch", batch, http.StatusOK},
		{"batch/truncated", http.MethodPost, "/batch", batch[:15], http.StatusBadRequest},
		{"batch/oversized", http.MethodPost, "/batch", pad(maxBatchBody, batch), http.StatusRequestEntityTooLarge},
		{"patch/truncated", http.MethodPatch, "/graph", patch[:20], http.StatusBadRequest},
		{"patch/oversized", http.MethodPatch, "/graph", pad(maxDeltaBody, patch), http.StatusRequestEntityTooLarge},
		{"patch/valid", http.MethodPatch, "/graph", patch, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := epoch()
			rec := serve(tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("%s %s: code %d, want %d: %s", tc.method, tc.path, rec.Code, tc.want, rec.Body)
			}
			if tc.want == http.StatusOK {
				return
			}
			var er errorReply
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("rejection is not a JSON error reply: %q (%v)", rec.Body, err)
			}
			if after := epoch(); after != before {
				t.Fatalf("rejected body moved the epoch %d -> %d", before, after)
			}
			var rr RouteReply
			rec = serve(http.MethodPost, "/route", route)
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); rec.Code != http.StatusOK || err != nil || !rr.Delivered {
				t.Fatalf("route after the rejection: code %d, delivered %v (%v)", rec.Code, rr.Delivered, err)
			}
		})
	}
}
