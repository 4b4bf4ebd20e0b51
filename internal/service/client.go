package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Client is a small typed client for the ivmfd HTTP API, shared by the
// serving benchmark (servebench/), the end-to-end and chaos tests, and
// external callers. With Retry set it transparently retries transient failures —
// connection errors, 429 backpressure, 503 degradation — with bounded,
// jittered exponential backoff, honoring the server's Retry-After.
// Mutations are retried only when the submission carries an
// Idempotency-Key (SubmitIdem): the server's dedupe ledger makes the
// retry exactly-once, which is what makes retrying safe at all.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry enables transparent retries; nil disables them.
	Retry *RetryPolicy

	mu      sync.Mutex
	rng     *rand.Rand
	retries atomic.Int64
}

// RetryPolicy bounds the client's backoff schedule.
type RetryPolicy struct {
	// MaxAttempts caps total tries per call (first attempt included);
	// <= 1 means no retries.
	MaxAttempts int
	// BaseBackoff is the first retry delay, doubling per attempt up to
	// MaxBackoff. Zero values mean the defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic; 0 means a fixed default (the
	// client is a test/load tool — reproducibility beats entropy).
	Seed int64
}

// Client retry defaults.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBase     = 50 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
)

func (p *RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultRetryAttempts
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) base() time.Duration {
	if p.BaseBackoff <= 0 {
		return DefaultRetryBase
	}
	return p.BaseBackoff
}

func (p *RetryPolicy) max() time.Duration {
	if p.MaxBackoff <= 0 {
		return DefaultRetryMax
	}
	return p.MaxBackoff
}

// Retries reports how many retry attempts the client has issued (load
// accounting).
func (c *Client) Retries() int64 { return c.retries.Load() }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// jitter01 draws one uniform [0,1) variate from the policy's seeded
// source.
func (c *Client) jitter01() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		seed := int64(1)
		if c.Retry != nil && c.Retry.Seed != 0 {
			seed = c.Retry.Seed
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c.rng.Float64()
}

// retryDelay computes the attempt'th backoff: exponential doubling from
// base capped at max, equal-jittered into [d/2, d], then raised to the
// server's Retry-After when that is longer. attempt counts completed
// tries (1 for the first retry).
//
//ivmf:deterministic
func retryDelay(attempt int, base, max, retryAfter time.Duration, jitter01 float64) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max || d <= 0 {
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	d = d/2 + time.Duration(jitter01*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// retryableStatus reports whether a response status is worth retrying.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// parseRetryAfter reads a Retry-After header in whole seconds (the only
// form the server emits); 0 means absent or unparsable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.ParseInt(h, 10, 32)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do issues one JSON request and decodes the response into out,
// retrying per the policy when the call is idempotent: every GET, the
// predict POST (read-only), and any submission carrying an
// Idempotency-Key.
func (c *Client) do(ctx context.Context, method, path, idemKey string, body, out any) error {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = data
	}
	idempotent := method == http.MethodGet || path == "/v1/predict" || idemKey != ""
	attempts := 1
	if c.Retry != nil && idempotent {
		attempts = c.Retry.attempts()
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		err, retryAfter, retryable := c.doOnce(ctx, method, path, idemKey, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= attempts {
			return lastErr
		}
		c.retries.Add(1)
		delay := retryDelay(attempt, c.Retry.base(), c.Retry.max(), retryAfter, c.jitter01())
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// doOnce issues one attempt. retryable reports whether the failure is
// transient (transport error or retryable status).
func (c *Client) doOnce(ctx context.Context, method, path, idemKey string, payload []byte, out any) (err error, retryAfter time.Duration, retryable bool) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err, 0, false
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err(), 0, false
		}
		return err, 0, true // connection-level failure
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err(), 0, false
		}
		return err, 0, true
	}
	if resp.StatusCode >= 300 {
		retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		apiErr := &APIError{Status: resp.StatusCode, Message: string(data)}
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			apiErr.Message = eb.Error
		}
		return apiErr, retryAfter, retryableStatus(resp.StatusCode)
	}
	if out == nil {
		return nil, 0, false
	}
	if err := json.Unmarshal(data, out); err != nil {
		return err, 0, false
	}
	return nil, 0, false
}

// APIError is a non-2xx server response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// Submit posts a job envelope and returns the queued job's info. It is
// never retried (a duplicate admission would not be detectable); use
// SubmitIdem for retry-safe submission.
func (c *Client) Submit(ctx context.Context, req Request) (JobInfo, error) {
	return c.SubmitIdem(ctx, req, "")
}

// SubmitIdem posts a job envelope under an idempotency key. With a
// non-empty key and a retry policy, transient failures are retried
// safely: a retry that lands after the original was admitted replays
// the original acknowledgement (info.Deduped set) instead of enqueueing
// a duplicate.
func (c *Client) SubmitIdem(ctx context.Context, req Request, key string) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs", key, req, &info)
	return info, err
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id uint64) (JobInfo, error) {
	var info JobInfo
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), "", nil, &info)
	return info, err
}

// WaitJob polls a job until it reaches a terminal state (done or
// failed) or ctx expires. A failed job is returned with a nil error —
// inspect info.State.
func (c *Client) WaitJob(ctx context.Context, id uint64, poll time.Duration) (JobInfo, error) {
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return info, err
		}
		if info.State == JobDone || info.State == JobFailed {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Predict posts a batch prediction request; all returned cells are
// consistent with the single snapshot version in the response.
func (c *Client) Predict(ctx context.Context, tenant string, cells [][2]int) (*PredictResponse, error) {
	var resp PredictResponse
	err := c.do(ctx, http.MethodPost, "/v1/predict", "", PredictRequest{Tenant: tenant, Cells: cells}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// TopN fetches the top-n columns for a row.
func (c *Client) TopN(ctx context.Context, tenant string, row, n int) (*TopNResponse, error) {
	var resp TopNResponse
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/topn?tenant=%s&row=%d&n=%d", tenant, row, n), "", nil, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes /healthz; a draining or down server returns an error.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Ready probes /readyz; a draining, breaker-open, or down server
// returns an error.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", "", nil, nil)
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: string(data)}
	}
	return string(data), nil
}
