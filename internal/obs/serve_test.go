package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerEndpoints: /metrics serves Prometheus text (including the
// build-info gauge), /healthz answers ok, and nothing else is mounted.
func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cache.hits_total").Add(2)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"postopc_cache_hits_total 2", "postopc_build_info{", `goamd64="`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get("/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, _ = get("/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("/debug/vars: %d, want 404 (no expvar mirror)", code)
	}
}

// TestNewServerHardening: the embedded server carries a header-read
// timeout and shuts down gracefully (idempotently, and nil-safely).
func TestNewServerHardening(t *testing.T) {
	srv := NewServer("127.0.0.1:0", NewRegistry())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("no ReadHeaderTimeout — slowloris-able listener")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ShutdownServer(srv, time.Second)
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	ShutdownServer(srv, time.Second) // idempotent
	ShutdownServer(nil, time.Second) // nil-safe
}
