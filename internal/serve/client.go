package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/corpus"
)

// Client talks to a characterization service — the `phasechar submit`
// side of the front door, the coordinator's connection to each shard
// worker, and the loopback half of the verify gate.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8430".
	Base string
	// Tenant goes out as the X-Tenant header; empty shares the
	// anonymous bucket.
	Tenant string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// StatusError is a non-2xx service reply.
type StatusError struct {
	Code int
	// RetryAfter is the Retry-After header (seconds), 0 if absent.
	RetryAfter int
	Body       string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// do runs one request and decodes error replies into StatusError.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		se := &StatusError{Code: resp.StatusCode, Body: string(body)}
		fmt.Sscan(resp.Header.Get("Retry-After"), &se.RetryAfter)
		return nil, se
	}
	return resp, nil
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(spec JobSpec) (Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url("/jobs"), bytes.NewReader(body))
	if err != nil {
		return Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("serve: decoding submit reply: %w", err)
	}
	return st, nil
}

// Status fetches a job's snapshot.
func (c *Client) Status(id string) (Status, error) {
	req, err := http.NewRequest(http.MethodGet, c.url("/jobs/"+id), nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Cancel cancels a queued job.
func (c *Client) Cancel(id string) (Status, error) {
	req, err := http.NewRequest(http.MethodPost, c.url("/jobs/"+id+"/cancel"), nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Result fetches a job's exported run JSON, blocking server-side until
// the job is terminal when wait is set. A failed job surfaces as a
// StatusError carrying the job's error text.
func (c *Client) Result(id string, wait bool) ([]byte, error) {
	u := c.url("/jobs/" + id + "/result")
	if wait {
		u += "?wait=1"
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Events follows a job's SSE stream, calling fn with each Status until
// the terminal one (after which the stream closes) or a transport
// error. It returns the last status seen.
func (c *Client) Events(id string, fn func(Status)) (Status, error) {
	req, err := http.NewRequest(http.MethodGet, c.url("/jobs/"+id+"/events"), nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var last Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var st Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
			return last, fmt.Errorf("serve: bad event frame: %w", err)
		}
		last = st
		if fn != nil {
			fn(st)
		}
	}
	return last, sc.Err()
}

// CorpusQuery posts one phase-corpus query and returns the raw answer
// JSON — the exact bytes `phasechar query` prints for the same
// question. A service without a corpus replies 404 (a StatusError).
func (c *Client) CorpusQuery(q corpus.QueryRequest) ([]byte, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url("/corpus/query"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// maxShardReplyBytes bounds a /shard reply read into memory.
const maxShardReplyBytes = 1 << 30

// Shard posts one shard request and returns the worker's reply: the
// shard's fcache entry, still unverified (core.PutShardArtifact decodes
// and checks it). A refusal surfaces as a StatusError; ctx bounds the
// whole exchange, reply body included.
func (c *Client) Shard(ctx context.Context, sr ShardRequest) ([]byte, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/shard"), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, maxShardReplyBytes))
}

// Metrics fetches the service's live /metrics report (raw JSON).
func (c *Client) Metrics() ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
