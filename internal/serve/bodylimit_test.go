package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodyLimits table-tests the body ceilings of every endpoint that
// decodes a body. A valid body is served; a truncated one answers 400;
// one past the endpoint's ceiling answers 413, even when it is valid
// JSON (leading whitespace pads it), whether its length is declared up
// front (refused unread) or only found by reading ("streamed", as a
// chunked upload). After every rejection the deployment keeps its
// epoch and keeps routing.
func TestBodyLimits(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 40}, K: 3, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	// length overrides the request's declared Content-Length when
	// non-zero: -1 leaves it unknown.
	serveLen := func(method, path, body string, length int64) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if length != 0 {
			req.ContentLength = length
		}
		h.ServeHTTP(rec, req)
		return rec
	}
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		return serveLen(method, path, body, 0)
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
		spec  = `{"kind":"cycle","size":40}`
	)
	cases := []struct {
		name, method, path, body string
		length                   int64
		want                     int
	}{
		{"route/valid", http.MethodPost, "/route", route, 0, http.StatusOK},
		{"route/truncated", http.MethodPost, "/route", route[:9], 0, http.StatusBadRequest},
		{"route/at-limit", http.MethodPost, "/route", pad(maxRouteBody-len(route), route), 0, http.StatusOK},
		{"route/at-limit-streamed", http.MethodPost, "/route", pad(maxRouteBody-len(route), route), -1, http.StatusOK},
		{"route/oversized", http.MethodPost, "/route", pad(maxRouteBody, route), 0, http.StatusRequestEntityTooLarge},
		{"route/oversized-streamed", http.MethodPost, "/route", pad(maxRouteBody, route), -1, http.StatusRequestEntityTooLarge},
		{"batch/valid", http.MethodPost, "/batch", batch, 0, http.StatusOK},
		{"batch/truncated", http.MethodPost, "/batch", batch[:15], 0, http.StatusBadRequest},
		{"batch/oversized", http.MethodPost, "/batch", pad(maxBatchBody, batch), 0, http.StatusRequestEntityTooLarge},
		{"batch/oversized-streamed", http.MethodPost, "/batch", pad(maxBatchBody, batch), -1, http.StatusRequestEntityTooLarge},
		{"patch/truncated", http.MethodPatch, "/graph", patch[:20], 0, http.StatusBadRequest},
		{"patch/oversized", http.MethodPatch, "/graph", pad(maxDeltaBody, patch), 0, http.StatusRequestEntityTooLarge},
		{"patch/oversized-streamed", http.MethodPatch, "/graph", pad(maxDeltaBody, patch), -1, http.StatusRequestEntityTooLarge},
		{"put/truncated", http.MethodPut, "/graph", spec[:12], 0, http.StatusBadRequest},
		// A streamed PUT past its 176 MiB ceiling is cut off by the same
		// reader as the streamed cases above; this one declares it.
		{"put/oversized", http.MethodPut, "/graph", spec, maxGraphBody + 1, http.StatusRequestEntityTooLarge},
		{"put/valid", http.MethodPut, "/graph", spec, 0, http.StatusOK},
		// Last: after its chord, alg2 at k = 3 no longer delivers the check route.
		{"patch/valid", http.MethodPatch, "/graph", patch, 0, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := epoch()
			rec := serveLen(tc.method, tc.path, tc.body, tc.length)
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
