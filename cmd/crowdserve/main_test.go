package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// syncBuffer is a bytes.Buffer safe to write from run's goroutine while the
// test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer runs the command in the background and returns its base URL
// and a stop function that cancels it and returns run's error.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &out) }()
	stop := func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("run did not return after cancel")
			return nil
		}
	}
	const marker = "listening on "
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if line, ok := strings.CutPrefix(out.String(), "crowdserve: "+marker); ok {
			addr, _, _ := strings.Cut(line, " ")
			return "http://" + addr, stop
		}
		select {
		case err := <-errc:
			t.Fatalf("run exited before listening: %v (output %q)", err, out.String())
		default:
		}
	}
	stop()
	t.Fatalf("server never listened (output %q)", out.String())
	return "", nil
}

// TestRunShutsDownCleanlyAndRecovers posts a worker to a durable server,
// stops it through its context, and expects a clean nil return; a second
// server on the same directory must then serve the worker back.
func TestRunShutsDownCleanlyAndRecovers(t *testing.T) {
	dir := t.TempDir()
	url, stop := startServer(t, "-dir", dir, "-walsync", "always")
	body, err := json.Marshal(&model.Worker{ID: "w1", Skills: make(model.SkillVector, 12)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST worker: status %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	url, stop = startServer(t, "-dir", dir)
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()
	resp, err = http.Get(url + "/v1/workers/w1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got model.Worker
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered worker: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "w1" {
		t.Fatalf("recovered worker = %+v", got)
	}
}

// TestRunRejectsBadWALSync pins that a bad -walsync comes back as an error
// instead of exiting the process, and that bad flags are usage errors.
func TestRunRejectsBadWALSync(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-dir", t.TempDir(), "-walsync", "sometimes"}, &out)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("bad -walsync: err = %v", err)
	}
	if err := run(context.Background(), []string{"-nope"}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("unknown flag: err = %v, want errUsage", err)
	}
}
