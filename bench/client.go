package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"distbound/internal/serve"
)

// client is one closed-loop caller: a single keep-alive connection, the next
// request sent only after the previous answer's last byte.
type client struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer // response body of the last call
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and reads the whole answer into c.buf, returning
// the request → last byte latency. A transport error or a non-200 status is
// an error: the op failed and has no latency.
func (c *client) post(path string, body []byte) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: status %d: %.200s", path, resp.StatusCode, c.buf.String())
	}
	return lat, nil
}

// query posts one encoded /v1/query body; the raw answer stays in c.buf.
func (c *client) query(body []byte) (time.Duration, error) { return c.post("/v1/query", body) }

// decodeQuery parses the answer of the last query call.
func (c *client) decodeQuery() (serve.QueryResponse, error) {
	var out serve.QueryResponse
	if err := json.Unmarshal(c.buf.Bytes(), &out); err != nil {
		return out, fmt.Errorf("decoding query answer: %w", err)
	}
	if out.Error != "" {
		return out, fmt.Errorf("query answered with error: %s", out.Error)
	}
	return out, nil
}

// appendRows posts one encoded /v1/append body and returns how many rows
// the daemon acknowledged.
func (c *client) appendRows(body []byte) (time.Duration, int, error) {
	lat, err := c.post("/v1/append", body)
	if err != nil {
		return 0, 0, err
	}
	var out serve.AppendResponse
	if err := json.Unmarshal(c.buf.Bytes(), &out); err != nil {
		return 0, 0, fmt.Errorf("decoding append answer: %w", err)
	}
	return lat, out.Appended, nil
}

// stats fetches /v1/stats.
func (c *client) stats() (serve.StatsResponse, error) {
	var out serve.StatsResponse
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining an error body
		return out, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
