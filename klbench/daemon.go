package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"klocal/internal/serve"
)

// daemon is klocald's handler behind a loopback listener, with one
// keep-alive connection per client.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	cl   []*http.Client
	buf  []bytes.Buffer // per-client reply buffer

	// Cache counters summed over /metrics scrape intervals that stayed
	// on one generation (see scrape).
	mu      sync.Mutex
	lastRev int64
	cache   cacheCounts
}

type cacheCounts struct{ hits, misses, requests float64 }

func startDaemon(sc serve.Config, clients int) (*daemon, error) {
	srv, err := serve.New(sc)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		buf:  make([]bytes.Buffer, clients),
	}
	// close stops the server, which ends Serve.
	go func() { d.done <- d.hs.Serve(ln) }()
	for c := 0; c < clients; c++ {
		d.cl = append(d.cl, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
		// Set-up ends with every client's connection open.
		if status, _, err := d.call(c, http.MethodGet, "/readyz", nil); err != nil || status != http.StatusOK {
			d.close()
			return nil, fmt.Errorf("readyz: status %d: %v", status, err)
		}
	}
	return d, nil
}

// call sends one request on client c's connection and reads the whole
// reply into c's buffer (see body). lat runs from sending the request
// to reading the reply's last byte.
func (d *daemon) call(c int, method, path string, payload []byte) (status int, lat time.Duration, err error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := d.cl[c].Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	buf := &d.buf[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// body is client c's last reply body, valid until its next call.
func (d *daemon) body(c int) []byte { return d.buf[c].Bytes() }

// scrape reads GET /metrics?format=json on client c's connection. The
// daemon's cache rate gauges cover the interval since the previous
// scrape; they are added up only when both scrapes saw the same
// generation, because a swap restarts the view cache's counters.
func (d *daemon) scrape(c int) error {
	status, _, err := d.call(c, http.MethodGet, "/metrics?format=json", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", status)
	}
	var m serve.MetricsReply
	if err := json.Unmarshal(d.body(c), &m); err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	rep := m.Algorithms["alg2"]
	if rep == nil {
		return errors.New("GET /metrics: no alg2 report")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if m.Rev == d.lastRev {
		secs := rep.Gauge("interval_s")
		d.cache.hits += rep.Gauge("cache_hits_per_s") * secs
		d.cache.misses += rep.Gauge("cache_misses_per_s") * secs
		d.cache.requests += rep.Gauge("requests_per_s") * secs
	}
	d.lastRev = m.Rev
	return nil
}

func (d *daemon) cacheCounts() cacheCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cache
}

func (d *daemon) close() {
	_ = d.hs.Close() // the listener's error, if any, is of no use at teardown
	<-d.done
	for _, c := range d.cl {
		c.CloseIdleConnections()
	}
	d.srv.Drain()
}
