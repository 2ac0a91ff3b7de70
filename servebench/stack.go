package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"dspot/internal/faultfs"
	"dspot/internal/jobs"
	"dspot/internal/registry"
	"dspot/internal/service"
)

// store is what one replay runs against: a registry and a jobs engine, as
// dspot-serve builds them, with every fit single-threaded.
type store struct {
	reg *registry.Registry
	eng *jobs.Engine
	fs  *benchFS // nil for an in-memory registry
	dir string
}

// openStore opens the registry on dataDir through inner ("" keeps it in
// memory), then starts a one-worker jobs engine.
func openStore(dataDir string, inner faultfs.FS, rec *recorder) (*store, error) {
	st := &store{dir: dataDir}
	opts := registry.Options{}
	if dataDir != "" {
		st.fs = &benchFS{inner: inner, rec: rec}
		opts.DataDir, opts.FS = dataDir, st.fs
	}
	reg, err := registry.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening registry: %w", err)
	}
	st.reg = reg
	st.eng = jobs.New(jobs.Options{Workers: 1})
	return st, nil
}

// bytesWritten is the persisted byte count so far (0 in memory).
func (st *store) bytesWritten() int64 {
	if st.fs == nil {
		return 0
	}
	return st.fs.bytes.Load()
}

func (st *store) fsOps() int64 {
	if st.fs == nil {
		return 0
	}
	return st.fs.ops.Load()
}

func (st *store) close() {
	st.eng.Close()
	if st.dir != "" {
		os.RemoveAll(st.dir) // a memfs registry never created it; best effort either way
	}
}

// stack is the real serving stack in this process: the store behind
// (*service.Server).Handler() behind httptest, with the program's own
// Tracer, Metrics and Logger left nil.
type stack struct {
	*store
	srv *httptest.Server
	cl  *client
}

// startStack serves st. With rec set, the handler is wrapped to record the
// service spans; wrap, when set, wraps the handler outermost (tests use it
// to corrupt responses).
func startStack(st *store, rec *recorder, wrap func(http.Handler) http.Handler) *stack {
	srv := &service.Server{Workers: 1, Registry: st.reg, Jobs: st.eng}
	h := srv.Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	return &stack{store: st, srv: ts, cl: newClient(ts.URL)}
}

func (s *stack) close() {
	s.cl.hc.CloseIdleConnections()
	s.srv.Close()
	s.store.close()
}

// traceHandler records one service.<route> span per request. Appends
// persist inside the request, so their file-system calls nest under it;
// fit jobs persist on the jobs worker, outside any request.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := serviceSpan(r)
		id := rec.begin(name, 0)
		if name == "service.append" {
			rec.setFSParent(id)
			defer rec.setFSParent(0)
		}
		defer rec.end(id, "")
		h.ServeHTTP(w, r)
	})
}

func serviceSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs/fit":
		return "service.job_submit"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/append"):
		return "service.append"
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/forecast"):
		return "service.forecast"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/refit"):
		return "service.refit"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "service.job_poll"
	default:
		return "service.other"
	}
}

// client sends one request at a time over one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// call sends one request and decodes a 2xx JSON answer into out; any other
// status, or a body that does not parse, is an error.
func (c *client) call(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: parsing answer: %w", method, path, err)
	}
	return nil
}
