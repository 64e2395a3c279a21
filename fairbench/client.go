package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// result is one completed request.
type result struct {
	req    *request
	lat    time.Duration
	status int
	body   []byte
	err    error
}

func (r *result) failed() bool { return r.err != nil || r.status != http.StatusOK }

// newClient returns an HTTP client keeping one connection alive to the
// daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// send posts one request and times it from the first byte written to the
// last byte of the response read.
func send(c *http.Client, base string, r *request) result {
	start := time.Now()
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return result{req: r, lat: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return result{req: r, lat: time.Since(start), status: resp.StatusCode, body: body, err: err}
}

// closedLoop sends the requests one after another, each only after the
// previous one answered, and returns the results and the elapsed time.
func closedLoop(c *http.Client, base string, reqs []*request) ([]result, time.Duration) {
	out := make([]result, 0, len(reqs))
	start := time.Now()
	for _, r := range reqs {
		out = append(out, send(c, base, r))
	}
	return out, time.Since(start)
}

// mustOK sends an untimed request and fails on anything but 200.
func mustOK(c *http.Client, base string, r *request) error {
	if res := send(c, base, r); res.failed() {
		return fmt.Errorf("%s %s: status %d, err %v: %s", r.path, r.body, res.status, res.err, res.body)
	}
	return nil
}
