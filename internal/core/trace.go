package core

import "fmt"

// TraceKind classifies the thread lifecycle transitions reported through
// Instrumentation.Lifecycle.
type TraceKind int

// Lifecycle transition kinds.
const (
	TraceKill      TraceKind = iota // thread killed
	TraceSuspend                    // thread explicitly suspended
	TraceResume                     // thread resumed
	TraceCondemned                  // thread lost its last custodian
	TraceYoke                       // thread yoked to another (ResumeVia/SpawnYoked)
	TraceBreak                      // break signal delivered to a thread
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceKill:
		return "kill"
	case TraceSuspend:
		return "suspend"
	case TraceResume:
		return "resume"
	case TraceCondemned:
		return "condemned"
	case TraceYoke:
		return "yoke"
	case TraceBreak:
		return "break"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// traceLocked delivers a lifecycle transition to the installed
// instrumentation's Lifecycle tap. Caller holds rt.mu.
func (rt *Runtime) traceLocked(kind TraceKind, th *Thread) {
	if h := rt.hook(); h != nil {
		h.Lifecycle(kind, th)
	}
}
