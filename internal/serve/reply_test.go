package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// TestRepliesAreCompact drives every JSON reply of the daemon through
// Handler. Each must be one line of compact JSON with Content-Type
// application/json and a Content-Length equal to its size.
func TestRepliesAreCompact(t *testing.T) {
	s, err := New(Config{Graph: GraphSpec{Kind: "cycle", Size: 40}, K: 3, Algorithms: []string{"alg2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	for _, tc := range []struct {
		name, method, path, body string
		want                     int
	}{
		{"route", http.MethodPost, "/route", `{"s":0,"t":5,"trace":true}`, http.StatusOK},
		{"batch", http.MethodPost, "/batch", `{"pairs":[[0,5],[3,9]]}`, http.StatusOK},
		{"error", http.MethodPost, "/route", `{"s":0,"t":999}`, http.StatusBadRequest},
		{"graph", http.MethodGet, "/graph", "", http.StatusOK},
		{"metrics", http.MethodGet, "/metrics?format=json", "", http.StatusOK},
		{"patch", http.MethodPatch, "/graph", `{"deltas":[{"op":"add-edge","u":0,"v":20}]}`, http.StatusOK},
		{"swap", http.MethodPut, "/graph", `{"kind":"cycle","size":40}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			body := rec.Body.Bytes()
			if rec.Code != tc.want {
				t.Fatalf("code %d, want %d: %s", rec.Code, tc.want, body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
				t.Errorf("Content-Length %q for a %d-byte body", cl, len(body))
			}
			line, ok := bytes.CutSuffix(body, []byte("\n"))
			var compact bytes.Buffer
			if err := json.Compact(&compact, line); !ok || err != nil || !bytes.Equal(compact.Bytes(), line) {
				t.Errorf("not one line of compact JSON (%v): %q", err, body)
			}
		})
	}
}

// TestWriteJSONRefusedValue checks that a value encoding/json refuses
// is answered with a 500 error reply, not a truncated body.
func TestWriteJSONRefusedValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, RouteReply{Stretch: math.NaN()})
	var er errorReply
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Fatalf("code %d, error %q (%v): %s", rec.Code, er.Error, err, rec.Body)
	}
}

type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestReplyBufferCap checks that a reply buffer grown past
// maxPooledReply goes to the collector rather than back to the pool:
// with collection off, such a reply allocates a fresh buffer every
// time, a small one none.
func TestReplyBufferCap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(er errorReply) float64 {
		w := discardWriter{h: make(http.Header)}
		return testing.AllocsPerRun(50, func() { writeJSON(w, http.StatusOK, er) })
	}
	// Both replies are over 99 bytes, so each formats its Content-Length
	// into a fresh string (strconv caches only smaller numbers): the
	// buffer is the one difference left.
	small := allocs(errorReply{Error: strings.Repeat("x", 200)})
	big := allocs(errorReply{Error: strings.Repeat("x", 2*maxPooledReply)})
	if big <= small {
		t.Fatalf("a %d-byte reply allocates %.0f times, a small one %.0f: its buffer was pooled", 2*maxPooledReply, big, small)
	}
}
