// Small-surface unit tests: connector semantics and the typed error
// map.

package serve

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wdcproducts/internal/schemaorg"
)

func TestSliceConnector(t *testing.T) {
	c := NewSliceConnector(schemaorg.Offer{ID: 1, Title: "a"})
	c.Push(schemaorg.Offer{ID: 2, Title: "b"})
	ctx := context.Background()
	for want := int64(1); want <= 2; want++ {
		off, err := c.Next(ctx)
		if err != nil || off.ID != want {
			t.Fatalf("next = %v, %v; want id %d", off.ID, err, want)
		}
	}
	if _, err := c.Next(ctx); err != io.EOF {
		t.Fatalf("drained connector err = %v, want EOF", err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Next(done); err != context.Canceled {
		t.Fatalf("cancelled connector err = %v", err)
	}
}

func TestChanConnector(t *testing.T) {
	c := NewChanConnector(1)
	c.C <- schemaorg.Offer{ID: 7, Title: "x"}
	close(c.C)
	ctx := context.Background()
	if off, err := c.Next(ctx); err != nil || off.ID != 7 {
		t.Fatalf("next = %v, %v", off.ID, err)
	}
	if _, err := c.Next(ctx); err != io.EOF {
		t.Fatalf("closed channel err = %v, want EOF", err)
	}
	blocked := NewChanConnector(0)
	done, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := blocked.Next(done); err != context.DeadlineExceeded {
		t.Fatalf("blocked channel err = %v", err)
	}
}

func TestJSONLConnectorErrors(t *testing.T) {
	c := NewJSONLConnector(strings.NewReader("{bad}\n{\"id\":3,\"title\":\"t\"}\n"))
	ctx := context.Background()
	_, err := c.Next(ctx)
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatalf("bad line err = %v, want *RecordError", err)
	}
	if re.Error() == "" || re.Unwrap() == nil {
		t.Fatal("RecordError does not expose its cause")
	}
	if off, err := c.Next(ctx); err != nil || off.ID != 3 {
		t.Fatalf("stream did not continue past the bad record: %v, %v", off, err)
	}
	if _, err := c.Next(ctx); err != io.EOF {
		t.Fatalf("end of stream err = %v", err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Next(done); err != context.Canceled {
		t.Fatalf("cancelled jsonl err = %v", err)
	}
}

// TestJSONLConnectorOverlongLine: a line over the 16 MiB record limit is
// one bad record, not the end of the stream — it surfaces as a
// *RecordError wrapping bufio.ErrTooLong with a clipped Record, and the
// next line decodes.
func TestJSONLConnectorOverlongLine(t *testing.T) {
	huge := "{\"title\":\"" + strings.Repeat("x", maxJSONLLine) + "\"}\n"
	c := NewJSONLConnector(strings.NewReader(huge + "{\"id\":3,\"title\":\"t\"}\n"))
	ctx := context.Background()
	_, err := c.Next(ctx)
	var re *RecordError
	if !errors.As(err, &re) || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("overlong line err = %v, want a *RecordError wrapping bufio.ErrTooLong", err)
	}
	if len(re.Record) > 512 || !strings.HasPrefix(huge, re.Record) {
		t.Fatalf("overlong record not clipped to a 512-byte prefix: %d bytes", len(re.Record))
	}
	if off, err := c.Next(ctx); err != nil || off.ID != 3 {
		t.Fatalf("stream did not continue past the overlong line: %v, %v", off, err)
	}
	if _, err := c.Next(ctx); err != io.EOF {
		t.Fatalf("end of stream err = %v", err)
	}
}

func TestErrorSurface(t *testing.T) {
	e := Errorf(CodeBackpressure, "queue full")
	if !strings.Contains(e.Error(), "backpressure") || !strings.Contains(e.Error(), "queue full") {
		t.Fatalf("Error() = %q", e.Error())
	}
	want := map[Code]int{
		CodeBadRequest:       http.StatusBadRequest,
		CodeUnknownOffer:     http.StatusNotFound,
		CodeBackpressure:     http.StatusTooManyRequests,
		CodeDeadlineExceeded: http.StatusGatewayTimeout,
		CodeCanceled:         http.StatusRequestTimeout,
		CodeShuttingDown:     http.StatusServiceUnavailable,
		CodeInternal:         http.StatusInternalServerError,
	}
	for code, status := range want {
		if got := (&Error{Code: code}).HTTPStatus(); got != status {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, status)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if e := ctxError(ctx); e.Code != CodeCanceled {
		t.Fatalf("ctxError(cancelled) = %s", e.Code)
	}
}

func TestClip(t *testing.T) {
	if got := clip("abcdef", 3); got != "abc" {
		t.Fatalf("clip = %q", got)
	}
	if got := clip("ab", 3); got != "ab" {
		t.Fatalf("clip short = %q", got)
	}
}
