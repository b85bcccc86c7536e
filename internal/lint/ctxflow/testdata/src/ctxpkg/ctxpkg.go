package ctxpkg

import "context"

func use(ctx context.Context) { _ = ctx }

// A context root in library code detaches the chain from cancellation.
func Root() {
	use(context.Background()) // want `context\.Background outside main/tests`
}

func Todo() {
	use(context.TODO()) // want `context\.TODO outside main/tests`
}

// A package-level initialiser is library code too, nested calls included;
// a literal in one is checked with its own signature, once.
var root = context.Background() // want `context\.Background outside main/tests`

var derived, cancelDerived = context.WithCancel(context.TODO()) // want `context\.TODO outside main/tests`

var (
	hooks = []func(){func() { use(context.Background()) }} // want `context\.Background outside main/tests`
	plain = 1
)

// Worse: the function already has a ctx and builds a fresh one anyway.
func Rebuild(ctx context.Context) {
	use(context.Background()) // want `rebuilds a fresh context`
}

// Deriving from the parameter is the sanctioned shape.
func Derive(ctx context.Context) {
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	use(child)
}

func WrongOrder(addr string, ctx context.Context) { // want `must be the first parameter`
	use(ctx)
	_ = addr
}

func FirstIsFine(ctx context.Context, addr string) {
	use(ctx)
	_ = addr
}

// Methods count the receiver separately; ctx first is still enforced on
// the parameter list itself.
type client struct{}

func (c *client) Do(ctx context.Context, addr string) { use(ctx) }

func (c *client) Bad(addr string, ctx context.Context) { // want `must be the first parameter`
	use(ctx)
	_ = addr
}

// Function literals follow the same rules.
func Literals() {
	f := func(n int, ctx context.Context) { // want `must be the first parameter`
		use(ctx)
		_ = n
	}
	f(1, context.TODO()) // want `context\.TODO outside main/tests`
}

// A reasoned allow marks the sanctioned lifecycle roots.
func LifecycleRoot() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background()) //lint:allow ctxflow fixture lifecycle root owned and cancelled by Close
}
