package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps"
)

// TestServerSmoke is the end-to-end check CI runs as its server-smoke
// step: build the real binary, start it on a free port, hit every
// endpoint over real HTTP, and assert the C returned for the PFC
// application is byte-identical to the golden files the CLI path is
// pinned against. A warm repeat of the same request must report a
// cache hit. SIGTERM must drain and exit 0.
func TestServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the server binary")
	}
	bin := filepath.Join(t.TempDir(), "qss-server")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}

	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			<-done
		}
	}()

	// The resolved listen address is logged as a contract; parse it.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("server: %s", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- line[i+len("listening on "):]:
				default:
				}
			}
		}
		done <- cmd.Wait()
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("server never logged its listen address")
	}

	if status, body := get(t, base+"/healthz"); status != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", status, body)
	}
	if status, body := get(t, base+"/readyz"); status != 200 || body != "ready\n" {
		t.Fatalf("/readyz: %d %q", status, body)
	}
	if status, body := get(t, base+"/metrics"); status != 200 ||
		!strings.Contains(body, "# TYPE qss_requests_total counter") ||
		!strings.Contains(body, "qss_synthesis_seconds_bucket") {
		t.Fatalf("/metrics malformed: status %d", status)
	}

	// Cold synthesis of the paper's video application (PFC): the
	// returned C must match the golden files the CLI path is pinned to.
	cold := postSynthesize(t, base, apps.PFC, apps.PFCSpec)
	if cold["cache_hit"].(bool) {
		t.Fatal("cold request reported cache_hit")
	}
	code := cold["code"].(map[string]any)
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "apps", "testdata", "golden", "pfc", "task_init.c"))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := code["task_init"].(string)
	if !ok {
		t.Fatalf("response code map lacks task_init (have %d entries)", len(code))
	}
	if got != string(golden) {
		t.Fatalf("server C for pfc/task_init differs from golden (%d vs %d bytes)", len(got), len(golden))
	}

	warm := postSynthesize(t, base, apps.PFC, apps.PFCSpec)
	if !warm["cache_hit"].(bool) {
		t.Fatal("repeat request did not hit the shared cache")
	}
	if warm["code"].(map[string]any)["task_init"].(string) != string(golden) {
		t.Fatal("warm response C differs from golden")
	}

	if status, body := get(t, base+"/metrics"); status != 200 ||
		!strings.Contains(body, "qss_cache_hits_total 1") ||
		!strings.Contains(body, "qss_cache_misses_total 1") {
		t.Fatalf("/metrics after traffic lacks hit/miss counters:\nstatus %d", status)
	}

	// Graceful drain: SIGTERM, clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
}

// TestSlowHeaderDisconnected: a client that sends half a request
// header and then stalls is disconnected once the header timeout
// passes, instead of holding its connection open indefinitely. The
// production server carries readHeaderTimeout; the test shortens it.
func TestSlowHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	const headerTimeout = 100 * time.Millisecond
	srv.ReadHeaderTimeout = headerTimeout
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: qss\r\n"); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	c.SetReadDeadline(begin.Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, c); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if elapsed := time.Since(begin); elapsed < headerTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postSynthesize(t *testing.T, base, flowc, net string) map[string]any {
	t.Helper()
	body, err := json.Marshal(map[string]any{"flowc": flowc, "net": net})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/synthesize: status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}
