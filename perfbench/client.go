package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the benchmark's closed-loop HTTP client. It keeps its
// connections alive and reads every response into one reused buffer,
// so the client's own allocations stay small next to the program's.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: time.Minute}}
}

// post sends one request and verifies the response: status 200 and a
// body byte-identical to want. With corrupt set it flips the first
// received byte before comparing. It returns the response header.
func (c *client) post(url string, body, want []byte, corrupt bool) (http.Header, error) {
	resp, err := c.hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("POST %s: reading the response: %w", url, err)
	}
	got := c.buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, got)
	}
	if corrupt && len(got) > 0 {
		got[0] ^= 0xff
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("POST %s: %d-byte response differs from the offline codec's %d bytes", url, len(got), len(want))
	}
	return resp.Header, nil
}

// waitReady polls GET base/readyz until it answers 200.
func (c *client) waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }
