package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"weakestfd/internal/explore"
)

// The coordinator and its workers speak length-delimited JSON over the
// worker's stdin/stdout: each frame is a header line "fdfleet2 <payload
// bytes>\n", the JSON payload, and a trailing newline. The magic doubles
// as the protocol version — a worker built from a different protocol
// revision fails the very first frame instead of misparsing mid-sweep.
// Revision 2 dropped the spec's engine field, which a revision-2 worker
// would otherwise ignore and sweep with source-DPOR.
const protoMagic = "fdfleet2"

// maxFrame bounds one frame's payload. Shard results carry shrunk
// counterexample artifacts, which run to a few tens of KB each; 256 MiB is
// far above any real frame while still catching a corrupt length before it
// turns into an absurd allocation.
const maxFrame = 256 << 20

// message is the single frame envelope, discriminated by Type:
//
//	coordinator → worker:
//	  "spec"    Spec                — the sweep; sent once, first
//	  "shard"   Shard, Lo, Hi      — explore job indices [Lo, Hi)
//	  "narrow"  Shard, Hi          — steal: stop before job Hi if possible
//	  "exit"                       — drain and terminate
//	worker → coordinator:
//	  "ready"   Jobs               — job-space size cross-check
//	  "progress" Shard, Lo, Name, Runs — one job (index Lo) finished
//	  "yield"   Shard, Hi          — narrow ack: worker stops before Hi
//	  "done"    Shard, Lo, Hi, Result — shard finished covering [Lo, Hi)
//	  "error"   Error              — fatal worker-side failure
type message struct {
	Type   string          `json:"type"`
	Spec   *Spec           `json:"spec,omitempty"`
	Shard  int             `json:"shard"`
	Lo     int             `json:"lo"`
	Hi     int             `json:"hi"`
	Jobs   int             `json:"jobs,omitempty"`
	Name   string          `json:"name,omitempty"`
	Runs   int64           `json:"runs,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result *explore.Result `json:"result,omitempty"`
}

// writeFrame encodes one frame. Callers serialize concurrent writers.
func writeFrame(w io.Writer, m *message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s frame: %w", m.Type, err)
	}
	if _, err := fmt.Fprintf(w, "%s %d\n", protoMagic, len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err = w.Write([]byte{'\n'})
	return err
}

// readFrame decodes one frame, failing loudly on any framing drift.
func readFrame(r *bufio.Reader) (*message, error) {
	header, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF && header == "" {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fleet: reading frame header: %w", err)
	}
	magic, lenStr, ok := strings.Cut(strings.TrimSuffix(header, "\n"), " ")
	if !ok || magic != protoMagic {
		return nil, fmt.Errorf("fleet: bad frame header %q (want %q + payload length; protocol mismatch?)", strings.TrimSpace(header), protoMagic)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > maxFrame {
		return nil, fmt.Errorf("fleet: bad frame length %q", lenStr)
	}
	buf := make([]byte, n+1)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("fleet: reading %d-byte frame: %w", n, err)
	}
	if buf[n] != '\n' {
		return nil, fmt.Errorf("fleet: frame not newline-terminated (payload length drift)")
	}
	var m message
	if err := json.Unmarshal(buf[:n], &m); err != nil {
		return nil, fmt.Errorf("fleet: decoding frame: %w", err)
	}
	return &m, nil
}
