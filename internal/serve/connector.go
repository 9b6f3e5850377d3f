// Streaming connectors: the daemon's ingest side reads offers from a
// Connector, one at a time, under the pipeline's context. Connectors are
// deliberately dumb — no batching, no retries; the pipeline owns both.

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"wdcproducts/internal/schemaorg"
)

// Connector is a streaming source of offers for the ingest pipeline.
type Connector interface {
	// Next blocks until the next offer is available, the stream ends
	// (io.EOF), or ctx is done (ctx.Err()). A *RecordError reports one
	// undecodable record; the stream continues past it.
	Next(ctx context.Context) (schemaorg.Offer, error)
}

// RecordError reports a single bad record in a stream. The pipeline
// dead-letters the record and keeps reading.
type RecordError struct {
	// Record is the raw record text (truncated for the dead-letter
	// log by the pipeline if huge).
	Record string
	// Err is the underlying decode failure.
	Err error
}

// Error implements error.
func (e *RecordError) Error() string { return fmt.Sprintf("bad record %q: %v", e.Record, e.Err) }

// Unwrap exposes the decode failure to errors.Is/As.
func (e *RecordError) Unwrap() error { return e.Err }

// SliceConnector replays a fixed slice of offers and then reports
// io.EOF. Safe for one consumer; Push may be called concurrently to
// extend the stream before it drains.
type SliceConnector struct {
	mu     sync.Mutex
	offers []schemaorg.Offer
}

// NewSliceConnector returns a connector that yields the given offers in
// order.
func NewSliceConnector(offers ...schemaorg.Offer) *SliceConnector {
	return &SliceConnector{offers: append([]schemaorg.Offer(nil), offers...)}
}

// Push appends more offers to the stream.
func (c *SliceConnector) Push(offers ...schemaorg.Offer) {
	c.mu.Lock()
	c.offers = append(c.offers, offers...)
	c.mu.Unlock()
}

// Next implements Connector.
func (c *SliceConnector) Next(ctx context.Context) (schemaorg.Offer, error) {
	if err := ctx.Err(); err != nil {
		return schemaorg.Offer{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.offers) == 0 {
		return schemaorg.Offer{}, io.EOF
	}
	off := c.offers[0]
	c.offers = c.offers[1:]
	return off, nil
}

// ChanConnector adapts a channel of offers, for tests and in-process
// producers: the stream ends (io.EOF) when C is closed.
type ChanConnector struct {
	// C carries the offers; close it to end the stream.
	C chan schemaorg.Offer
}

// NewChanConnector returns a ChanConnector with a channel of the given
// buffer size.
func NewChanConnector(buf int) *ChanConnector {
	return &ChanConnector{C: make(chan schemaorg.Offer, buf)}
}

// Next implements Connector.
func (c *ChanConnector) Next(ctx context.Context) (schemaorg.Offer, error) {
	select {
	case off, ok := <-c.C:
		if !ok {
			return schemaorg.Offer{}, io.EOF
		}
		return off, nil
	case <-ctx.Done():
		return schemaorg.Offer{}, ctx.Err()
	}
}

// maxJSONLLine bounds one JSONL record, newline included. A longer line
// is reported as a *RecordError wrapping bufio.ErrTooLong and skipped.
const maxJSONLLine = 16 * 1024 * 1024

// JSONLConnector decodes offers from a reader carrying one JSON offer
// object per line — the wire format of the benchmark corpus files.
// Undecodable and overlong lines surface as *RecordError and the stream
// continues.
type JSONLConnector struct {
	r *bufio.Reader
}

// NewJSONLConnector wraps r in a line-oriented offer decoder.
func NewJSONLConnector(r io.Reader) *JSONLConnector {
	return &JSONLConnector{r: bufio.NewReaderSize(r, 64*1024)}
}

// Next implements Connector. Blank lines are skipped.
func (c *JSONLConnector) Next(ctx context.Context) (schemaorg.Offer, error) {
	for {
		if err := ctx.Err(); err != nil {
			return schemaorg.Offer{}, err
		}
		line, overlong, err := c.readLine()
		if err != nil {
			return schemaorg.Offer{}, err
		}
		if overlong {
			return schemaorg.Offer{}, &RecordError{Record: string(line), Err: bufio.ErrTooLong}
		}
		if len(line) == 0 {
			continue
		}
		var off schemaorg.Offer
		if err := json.Unmarshal(line, &off); err != nil {
			return schemaorg.Offer{}, &RecordError{Record: string(line), Err: err}
		}
		return off, nil
	}
}

// readLine returns the next line without its line ending ("\n" or
// "\r\n"); the last line may lack one. A line over maxJSONLLine is read
// through to its newline, so the stream resumes at the next record, and
// comes back clipped to its first 512 bytes with overlong set. At the end
// of the stream it returns io.EOF.
func (c *JSONLConnector) readLine() ([]byte, bool, error) {
	var line []byte
	overlong := false
	for {
		frag, err := c.r.ReadSlice('\n')
		if !overlong {
			line = append(line, frag...)
			if len(line) > maxJSONLLine {
				line, overlong = line[:512:512], true
			}
		}
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && (len(line) > 0 || overlong):
			// The last line lacks a newline.
		case err != nil:
			return nil, false, err
		}
		if overlong {
			return line, true, nil
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		return bytes.TrimSuffix(line, []byte("\r")), false, nil
	}
}
