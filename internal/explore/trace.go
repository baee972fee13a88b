package explore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ActionKind enumerates the scheduler's decision vocabulary. A schedule is
// a sequence of actions; given the same scenario and the same sequence,
// a deterministic run replays bit-identically.
type ActionKind int

const (
	// ActRun grants one scheduling quantum (safe point to safe point) to
	// the thread identified by Thread.
	ActRun ActionKind = iota
	// ActDeliver delivers the oldest queued External completion.
	ActDeliver
	// ActClock advances the virtual clock to the next pending alarm.
	ActClock
	// ActKill / ActSuspend / ActResume / ActBreak inject a fault against
	// the victim thread identified by Thread.
	ActKill
	ActSuspend
	ActResume
	ActBreak
	// ActShutdown shuts down the victim custodian identified by Cust
	// (an index into the scenario's registered custodian list).
	ActShutdown
)

// Action is one scheduling decision.
type Action struct {
	Kind   ActionKind
	Thread int64 // thread id, for ActRun and the thread faults
	Cust   int   // custodian index, for ActShutdown
}

// Fault reports whether the action is a fault injection rather than a
// progress step.
func (a Action) Fault() bool {
	switch a.Kind {
	case ActKill, ActSuspend, ActResume, ActBreak, ActShutdown:
		return true
	}
	return false
}

func (a Action) String() string {
	switch a.Kind {
	case ActRun:
		return fmt.Sprintf("r %d", a.Thread)
	case ActDeliver:
		return "d"
	case ActClock:
		return "c"
	case ActKill:
		return fmt.Sprintf("k %d", a.Thread)
	case ActSuspend:
		return fmt.Sprintf("s %d", a.Thread)
	case ActResume:
		return fmt.Sprintf("u %d", a.Thread)
	case ActBreak:
		return fmt.Sprintf("b %d", a.Thread)
	case ActShutdown:
		return fmt.Sprintf("x %d", a.Cust)
	}
	return fmt.Sprintf("? %d", int(a.Kind))
}

// Trace is a recorded schedule: the scenario it drives, the seed that
// produced it (for provenance only — replay does not use it), and the
// decision sequence.
type Trace struct {
	Scenario string
	Seed     int64
	Actions  []Action
}

// traceMagic is the first line of every trace file; the trailing number
// is the format version.
const traceMagic = "killsafe-explore-trace 1"

// Encode writes the trace in its line-oriented text format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", traceMagic)
	if t.Scenario != "" { // a bare "scenario" line does not decode
		fmt.Fprintf(bw, "scenario %s\n", t.Scenario)
	}
	fmt.Fprintf(bw, "seed %d\n", t.Seed)
	for _, a := range t.Actions {
		fmt.Fprintf(bw, "%s\n", a.String())
	}
	return bw.Flush()
}

// EncodeToString renders the trace file contents as a string.
func (t *Trace) EncodeToString() string {
	var sb strings.Builder
	_ = t.Encode(&sb)
	return sb.String()
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseActionLine parses one action line of the trace format. ok is
// false for lines that are not actions (headers, handled by the
// caller).
func parseActionLine(text string) (a Action, ok bool, err error) {
	fields := strings.Fields(text)
	arg := func() (int64, error) {
		if len(fields) != 2 {
			return 0, fmt.Errorf("explore: action %q needs one argument", text)
		}
		return strconv.ParseInt(fields[1], 10, 64)
	}
	switch fields[0] {
	case "d":
		return Action{Kind: ActDeliver}, true, nil
	case "c":
		return Action{Kind: ActClock}, true, nil
	case "r", "k", "s", "u", "b":
		n, err := arg()
		if err != nil {
			return Action{}, false, err
		}
		kind := map[string]ActionKind{"r": ActRun, "k": ActKill, "s": ActSuspend, "u": ActResume, "b": ActBreak}[fields[0]]
		return Action{Kind: kind, Thread: n}, true, nil
	case "x":
		n, err := arg()
		if err != nil {
			return Action{}, false, err
		}
		return Action{Kind: ActShutdown, Cust: int(n)}, true, nil
	}
	return Action{}, false, nil
}

// EncodeActions renders a bare action sequence (no header) in the trace
// line format, one action per line. It is the fleet protocol's prefix
// encoding.
func EncodeActions(actions []Action) string {
	var sb strings.Builder
	for _, a := range actions {
		sb.WriteString(a.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DecodeActions parses a bare action sequence as produced by
// EncodeActions.
func DecodeActions(s string) ([]Action, error) {
	var out []Action
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, ok, err := parseActionLine(line)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("explore: unknown action %q", line)
		}
		out = append(out, a)
	}
	return out, nil
}

// DecodeTrace parses a trace file.
func DecodeTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() || sc.Text() != traceMagic {
		return nil, fmt.Errorf("explore: not a trace file (want %q header)", traceMagic)
	}
	t := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "scenario":
			if len(fields) != 2 {
				return nil, fmt.Errorf("explore: trace line %d: malformed scenario", line)
			}
			t.Scenario = fields[1]
		case "seed":
			if len(fields) != 2 {
				return nil, fmt.Errorf("explore: trace line %d: malformed seed", line)
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, err
			}
			t.Seed = n
		default:
			a, ok, err := parseActionLine(text)
			if err != nil {
				return nil, fmt.Errorf("explore: trace line %d: %w", line, err)
			}
			if !ok {
				return nil, fmt.Errorf("explore: trace line %d: unknown op %q", line, fields[0])
			}
			t.Actions = append(t.Actions, a)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadTraceFile loads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeTrace(f)
}
