package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"tilingsched/internal/service"
)

// maxConns is the benchmark's connection budget: every workload loads
// the server over at most two loopback connections.
const maxConns = 2

// registryCap is latticed's default -cache (plan cache capacity).
const registryCap = 256

// newServer builds the handler latticed serves, at the daemon's default
// options.
func newServer() *service.Server {
	return service.NewServer(service.NewRegistry(registryCap), service.ServerOptions{Logf: log.Printf})
}

// loopback is a server on a loopback listener plus the client that
// loads it.
type loopback struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
}

// listen serves srv on a fresh loopback port.
func listen(srv *service.Server) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns http.ErrServerClosed on close
	tr := &http.Transport{
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
	}
	return &loopback{srv: srv, hs: hs, base: "http://" + ln.Addr().String(), client: &http.Client{Transport: tr}}, nil
}

// close stops the server and drops the client's connections.
func (lb *loopback) close() {
	if lb.hs == nil {
		return // a ServeHTTP-only environment
	}
	lb.client.CloseIdleConnections()
	// Shutdown waits for in-flight handlers, so the caller may remove
	// their files afterwards; Close cuts whatever is left.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = lb.hs.Shutdown(ctx) // on timeout, Close below ends the rest
	_ = lb.hs.Close()
}

// serveRecorded runs one request through the handler's ServeHTTP into a
// ResponseRecorder, without HTTP transport, and returns when the call
// started and ended.
func serveRecorded(h http.Handler, path, contentType string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Time) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, start, time.Now()
}

// post sends one request and reads the whole reply into dst.
func (lb *loopback) post(path, contentType string, body []byte, dst *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, lb.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading reply: %w", err)
	}
	return resp.StatusCode, nil
}

// contentType is the request content type of a codec.
func contentType(bin bool) string {
	if bin {
		return service.BinaryContentType
	}
	return "application/json"
}
