package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/collection"
	"brepartition/internal/server"
)

// stack is one breserved process in miniature: a collection registry
// under a durable root, the server over it, and a loopback listener —
// the same assembly cmd/breserved makes.
type stack struct {
	root string
	reg  *collection.Registry
	srv  *server.Server
	hs   *http.Server
	url  string
	errc chan error
}

// openStack opens (or creates) the registry under root and serves it on
// a fresh loopback port.
func openStack(root string, cfg server.Config) (*stack, error) {
	reg, err := collection.Open(root, collection.Options{})
	if err != nil {
		return nil, fmt.Errorf("open registry: %w", err)
	}
	st := &stack{root: root, reg: reg, srv: server.NewMulti(reg, cfg)}
	if err := st.listen(); err != nil {
		st.srv.Close()
		reg.Close()
		return nil, err
	}
	return st, nil
}

// listen serves st.srv on a fresh loopback port.
func (st *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.url = "http://" + ln.Addr().String()
	st.errc = make(chan error, 1)
	go func() { st.errc <- st.hs.Serve(ln) }()
	return nil
}

// stopServing drains the listener and the server's pipelines, leaving
// the registry open (the ladder serves it again with its own server).
func (st *stack) stopServing() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := st.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// close stops serving and closes the registry (WALs and tag logs).
func (st *stack) close() error {
	err := st.stopServing()
	if cerr := st.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveAgain replaces the server over the still-open registry.
func (st *stack) serveAgain(cfg server.Config) error {
	st.srv = server.NewMulti(st.reg, cfg)
	return st.listen()
}

// newClient makes one caller's client: one keep-alive connection.
func (st *stack) newClient(binary bool) *client.Client {
	return client.New(st.url, client.Options{Binary: binary, MaxIdleConns: 1, Timeout: 30 * time.Second})
}

// dirBytes sums the sizes of the regular files under dir, skipping any
// directory named skip.
func dirBytes(dir, skip string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip != "" && d.Name() == skip && path != dir {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
