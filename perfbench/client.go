package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"privreg/internal/retry"
	"privreg/internal/wire"
)

// retryBound is how long one operation may keep retrying retryable
// rejections before it counts as failed.
const retryBound = 5 * time.Second

// counts are one sender's operation tallies.
type counts struct {
	attempted int64
	succeeded int64
	failed    int64
	retried   int64 // retryable rejections (429s, retryable nacks) retried
	skipped   int64 // observes skipped because the stream reached its horizon
}

func (c *counts) add(o counts) {
	c.attempted += o.attempted
	c.succeeded += o.succeeded
	c.failed += o.failed
	c.retried += o.retried
	c.skipped += o.skipped
}

// errMismatch marks an answer that arrived but is wrong (applied count or
// stream length): a correctness failure, not a transport one.
var errMismatch = errors.New("correctness mismatch")

// client is one client connection over the workload's transport.
type client struct {
	w    workload
	wc   *wire.Client
	hc   *http.Client
	tr   *http.Transport
	base string
}

func dial(w workload, n *node) (*client, error) {
	c := &client{w: w}
	if w.transport == "wire" {
		wc, err := wire.Dial(n.wireAddr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		c.wc = wc
		return c, nil
	}
	c.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c.hc = &http.Client{Transport: c.tr, Timeout: 30 * time.Second}
	c.base = "http://" + n.httpAddr
	return c, nil
}

func (c *client) close() {
	if c.wc != nil {
		c.wc.Close()
	}
	if c.tr != nil {
		c.tr.CloseIdleConnections()
	}
}

// withRetry runs attempt (numbered from 1) until it succeeds, fails
// permanently, or retryable rejections outlast retryBound.
func withRetry(ctx context.Context, cnt *counts, attempt func(n int) (retryable bool, hint time.Duration, err error)) error {
	deadline := time.Now().Add(retryBound)
	for i := 1; ; i++ {
		retryable, hint, err := attempt(i)
		if err == nil || !retryable {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("retries exhausted after %v: %w", retryBound, err)
		}
		cnt.retried++
		t := time.NewTimer(retry.Delay(i, hint))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// observe sends rows [off, off+batch) of a stream as one conditional batch
// and checks the ack: the batch applies whole and the stream length becomes
// off+batch. Only a retry, whose earlier attempt may have landed, may ack
// the batch as a duplicate (applied 0).
func (c *client) observe(ctx context.Context, cnt *counts, in *input, off int) error {
	want := off + c.w.batch
	check := func(attempt, applied, n int) error {
		if (applied != c.w.batch && (attempt == 1 || applied != 0)) || n != want {
			return fmt.Errorf("%w: observe %s at %d acked applied=%d len=%d, want applied=%d len=%d", errMismatch, in.id, off, applied, n, c.w.batch, want)
		}
		return nil
	}
	if c.wc != nil {
		xs, ys := in.block(c.w, off)
		return withRetry(ctx, cnt, func(attempt int) (bool, time.Duration, error) {
			applied, n, err := c.wc.ObserveAt(in.id, int64(off), xs, ys)
			if err != nil {
				hint, _ := wire.RetryAfter(err)
				return wire.IsRetryable(err), hint, err
			}
			return false, 0, check(attempt, applied, n)
		})
	}
	prefix := strconv.AppendInt([]byte(`{"from":`), int64(off), 10)
	prefix = append(prefix, ',')
	body := in.body(c.w, off)
	url := c.base + "/v1/streams/" + in.id + "/observe"
	return withRetry(ctx, cnt, func(attempt int) (bool, time.Duration, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, io.MultiReader(bytes.NewReader(prefix), bytes.NewReader(body)))
		if err != nil {
			return false, 0, err
		}
		req.ContentLength = int64(len(prefix) + len(body))
		req.Header.Set("Content-Type", "application/json")
		var ack struct {
			Applied int `json:"applied"`
			Len     int `json:"len"`
		}
		retryable, hint, err := c.do(req, &ack)
		if err != nil {
			return retryable, hint, err
		}
		return false, 0, check(attempt, ack.Applied, ack.Len)
	})
}

// estimate reads one outcome's estimate and checks the reported stream
// length when wantLen ≥ 0.
func (c *client) estimate(ctx context.Context, cnt *counts, id string, outcome, wantLen int) ([]float64, error) {
	var theta []float64
	var n int
	var err error
	if c.wc != nil {
		err = withRetry(ctx, cnt, func(int) (bool, time.Duration, error) {
			var e error
			theta, n, e = c.wc.EstimateOutcome(id, outcome)
			hint, _ := wire.RetryAfter(e)
			return wire.IsRetryable(e), hint, e
		})
	} else {
		url := c.base + "/v1/streams/" + id + "/estimate"
		if outcome > 0 {
			url += "?outcome=" + strconv.Itoa(outcome)
		}
		err = withRetry(ctx, cnt, func(int) (bool, time.Duration, error) {
			req, e := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if e != nil {
				return false, 0, e
			}
			var resp struct {
				Estimate []float64 `json:"estimate"`
				Len      int       `json:"len"`
			}
			retryable, hint, e := c.do(req, &resp)
			theta, n = resp.Estimate, resp.Len
			return retryable, hint, e
		})
	}
	if err != nil {
		return nil, err
	}
	if len(theta) != c.w.dim || (wantLen >= 0 && n != wantLen) {
		return nil, fmt.Errorf("%w: estimate %s outcome %d returned dim %d len %d, want dim %d len %d", errMismatch, id, outcome, len(theta), n, c.w.dim, wantLen)
	}
	return theta, nil
}

// do sends req and decodes a 200 body into out; a backpressure status is
// reported retryable with the server's Retry-After hint.
func (c *client) do(req *http.Request, out any) (bool, time.Duration, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return retry.RetryableStatus(resp.StatusCode), retry.HTTPRetryAfter(resp), fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, 0, fmt.Errorf("%s %s: decoding response: %w", req.Method, req.URL.Path, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return false, 0, nil
}
