// Package cgfix exercises every edge kind the call-graph builder
// resolves; callgraph_test.go asserts the resulting edges.
package cgfix

func callee() {}

func plainCall() { callee() }

func spawn() { go callee() }

func deferred() { defer callee() }

func closure() int {
	f := func() int { return 1 }
	return f()
}

func immediate() {
	func() { callee() }()
}

func reference() func() { return callee }

// Doer is dispatched through below.
type Doer interface{ Do() }

// RealDoer is the one concrete implementation in the fixture.
type RealDoer struct{}

// Do implements Doer.
func (RealDoer) Do() {}

func dispatch(d Doer) { d.Do() }

// genStudy is a type-parameterised interface: its method mentions the
// type parameters, so no concrete type implements it until instantiated.
type genStudy[J, O any] interface{ Exec(j J) O }

// genSpec implements genStudy[int, string].
type genSpec struct{}

// Exec implements genStudy.
func (genSpec) Exec(j int) string { return "" }

func genRun[J, O any](s genStudy[J, O], j J) O { return s.Exec(j) }

func genID[T any](t T) T { return t }

func instantiated() string { return genRun[int, string](genSpec{}, genID[int](1)) }
