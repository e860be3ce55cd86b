package serve

// Deterministic fault injection for the shard transport. Faults wraps an
// http.RoundTripper and perturbs requests per scripted schedule: each
// worker host carries an ordered list of fault kinds, consumed one per
// request to that host. Scripts plus a seed fully determine behavior, so
// an integration test (or the verify.sh distributed gate) can inject a
// schedule and assert exact retry/reassignment counters — and, through
// the coordinator's invariant, byte-identical output.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// FaultKind enumerates the injectable transport faults.
type FaultKind int

const (
	// FaultNone passes the request through untouched.
	FaultNone FaultKind = iota
	// FaultDrop fails the request with a synthetic connection error.
	FaultDrop
	// FaultDelay delays the request a small seeded duration, then passes
	// it through.
	FaultDelay
	// FaultCorrupt passes the request through and flips one byte of the
	// response body.
	FaultCorrupt
	// Fault5xx synthesizes a 503 without reaching the worker.
	Fault5xx
	// FaultHang blocks until the request context is cancelled (the
	// caller's deadline), then fails with the context error.
	FaultHang
	// FaultDown marks the host permanently dead: this and every later
	// request to it fail with a connection error.
	FaultDown
)

var faultNames = map[FaultKind]string{
	FaultNone:    "none",
	FaultDrop:    "drop",
	FaultDelay:   "delay",
	FaultCorrupt: "corrupt",
	Fault5xx:     "5xx",
	FaultHang:    "hang",
	FaultDown:    "down",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// parseFaultKind maps a spec token to its kind.
func parseFaultKind(s string) (FaultKind, error) {
	for k, name := range faultNames {
		if name == s {
			return k, nil
		}
	}
	return FaultNone, fmt.Errorf("serve: unknown fault kind %q", s)
}

// Faults is a fault-injecting http.RoundTripper. The zero value is not
// usable; construct with NewFaults. Safe for concurrent use.
type Faults struct {
	next http.RoundTripper
	seed uint64

	mu      sync.Mutex
	scripts map[string][]FaultKind
	down    map[string]bool
	rngs    map[string]*trace.RNG
}

// NewFaults wraps next (nil means http.DefaultTransport) with an empty
// fault schedule. The seed drives only the delay durations, never which
// faults fire.
func NewFaults(next http.RoundTripper, seed int64) *Faults {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Faults{
		next:    next,
		seed:    uint64(seed),
		scripts: make(map[string][]FaultKind),
		down:    make(map[string]bool),
		rngs:    make(map[string]*trace.RNG),
	}
}

// Script appends faults to host's schedule (host as in url.URL.Host,
// e.g. "127.0.0.1:8421"). Requests to the host consume the schedule in
// order; once exhausted, requests pass through.
func (f *Faults) Script(host string, kinds ...FaultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scripts[host] = append(f.scripts[host], kinds...)
}

// AddSpec parses a CLI fault spec and scripts it against hosts by index.
// The grammar is ';'-separated entries of "workerIndex:kind[,kind...]",
// e.g. "0:5xx,corrupt;2:down": worker 0's first request gets a 503, its
// second a corrupted body; worker 2 is down from the start.
func (f *Faults) AddSpec(spec string, hosts []string) error {
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		idx, list, ok := strings.Cut(entry, ":")
		if !ok {
			return fmt.Errorf("serve: fault entry %q is not workerIndex:kinds", entry)
		}
		w, err := strconv.Atoi(strings.TrimSpace(idx))
		if err != nil || w < 0 || w >= len(hosts) {
			return fmt.Errorf("serve: fault entry %q: worker index out of range [0,%d)", entry, len(hosts))
		}
		var kinds []FaultKind
		for _, tok := range strings.Split(list, ",") {
			k, err := parseFaultKind(strings.TrimSpace(tok))
			if err != nil {
				return err
			}
			kinds = append(kinds, k)
		}
		f.Script(hosts[w], kinds...)
	}
	return nil
}

// take pops the next scheduled fault for host, honoring sticky death.
func (f *Faults) take(host string) FaultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[host] {
		return FaultDrop
	}
	s := f.scripts[host]
	if len(s) == 0 {
		return FaultNone
	}
	k := s[0]
	f.scripts[host] = s[1:]
	if k == FaultDown {
		f.down[host] = true
	}
	return k
}

// delay returns the next seeded delay duration for host: deterministic
// per (seed, host, call ordinal) and small enough not to trip sane
// request deadlines.
func (f *Faults) delay(host string) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rngs[host]
	if r == nil {
		r = trace.NewRNG(f.seed ^ trace.HashString(host))
		f.rngs[host] = r
	}
	return time.Duration(1+r.Uint64n(20)) * time.Millisecond
}

// RoundTrip implements http.RoundTripper.
func (f *Faults) RoundTrip(req *http.Request) (*http.Response, error) {
	switch k := f.take(req.URL.Host); k {
	case FaultNone:
		return f.next.RoundTrip(req)
	case FaultDrop, FaultDown:
		return nil, fmt.Errorf("serve: injected connection failure to %s", req.URL.Host)
	case FaultDelay:
		select {
		case <-time.After(f.delay(req.URL.Host)):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return f.next.RoundTrip(req)
	case Fault5xx:
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body:    io.NopCloser(strings.NewReader("injected 503")),
			Request: req,
		}, nil
	case FaultCorrupt:
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if len(body) > 0 {
			// Flip a bit in the middle of the entry so the corruption lands
			// in the payload, not just a header field.
			body[len(body)/2] ^= 0x40
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		return resp, nil
	case FaultHang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	default:
		return nil, fmt.Errorf("serve: unhandled fault %v", k)
	}
}
