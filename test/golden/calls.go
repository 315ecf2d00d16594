// Calls whose int and bool parameters live in VM registers, and the
// parameters that must keep their frame cells.

var results map[int]int

var flags map[int]bool

// each worker goroutine writes only its own element of these
var sums []int

var done []int

// a register parameter reassigned in the body
func countdown(n int, step int) int {
  total := 0
  for n > 0 {
    total += n
    n = n - step
  }
  return total
}

// a register bound compared against a register index
func sumBelow(xs []int, lo int, hi int) int {
  s := 0
  for i := lo; i < hi; i++ {
    s += xs[i]
  }
  return s
}

// an address-taken int parameter keeps its frame cell
func bump(n int, by int) int {
  p := &n
  *p = *p + by
  return n
}

// an int parameter whose address escapes lives in a heap box
func boxed(n int) *int {
  return &n
}

// parameters swapped by a, b = b, a (lowered to plain assignments
// through temporaries, so they stay registers)
func order(a int, b int) (int, int) {
  if a > b {
    a, b = b, a
  }
  return a, b
}

func divmod(a int, b int) (int, int) {
  return a / b, a % b
}

// parameters that are the targets of a multi-value assignment keep
// their frame cells
func reduce(a int, b int) (int, int) {
  for b > 1 {
    a, b = divmod(a, b)
  }
  return a, b
}

// a bool parameter in a condition, reassigned
func pick(flag bool, x int, y int) int {
  if flag {
    flag = x > y
  }
  if flag {
    return x
  }
  return y
}

// recursion deep enough to grow the frame pool many times
func depth(n int, acc int) int {
  if n == 0 {
    return acc
  }
  return depth(n-1, acc+n%7)
}

func note(i int, ok bool) {
  if ok {
    results[i] = results[i] + i
  } else {
    results[i] = results[i] - 1
  }
  flags[i] = ok
}

func report(i int, ok bool) {
  println("deferred", i, ok, results[i])
}

func guard() {
  msg := recover()
  if msg != "" {
    println("recovered:", msg)
  }
}

// panics from inside a chain of register-parameter frames
func dive(n int, limit int) int {
  if n == limit {
    panic("limit " + itoa(limit))
  }
  buf := make([]int, 2)
  buf[0] = n
  return dive(n+1, limit) + buf[0]
}

func safeDive(limit int) int {
  defer guard()
  defer note(limit, limit%2 == 0)
  return dive(0, limit)
}

func explode(n int) {
  panic("defer " + itoa(n))
}

// a deferred call that panics after a normal return: the frame that
// deferred it is released all the same, with its scopes
func fragile(n int, k int) int {
  buf := make([]int, 3)
  buf[0] = n + k
  defer explode(n)
  return buf[0]
}

// a deferred call that panics while a body panic unwinds: the second
// panic replaces the first
func doubleFault(n int) int {
  defer explode(n + 100)
  panic("body " + itoa(n))
}

func shield(n int, double bool) int {
  defer guard()
  if double {
    return doubleFault(n)
  }
  return fragile(n, 1)
}

// no panic is in flight any more: recover() finds nothing
func calm(n int) int {
  defer guard()
  return n + 1
}

// reads its own locals and calls on after its callees' defers panicked
func survivor(n int, tag bool) int {
  local := make([]int, 3)
  local[1] = n * 2
  kept := n + 5
  r := shield(n, false) + shield(n, true)
  return r + local[1] + kept + depth(30, n) + pick(tag, n, 1) + calm(n)
}

func tally(k int, ok bool) int {
  if ok {
    return k
  }
  return -1
}

// a goroutine's register parameters.  It touches no map: what main and
// the deferred report calls print must not depend on the schedule.
func worker(id int, rounds int, even bool) {
  s := 0
  for r := 0; r < rounds; r++ {
    s += tally(id*100+r, even)
  }
  sums[id] = s
  done[id] = 1
}

func main() {
  results = make(map[int]int)
  flags = make(map[int]bool)
  sums = make([]int, 4)
  done = make([]int, 4)
  println(countdown(10, 1), countdown(10, 3), countdown(0, 1))
  xs := make([]int, 20)
  for i := 0; i < len(xs); i++ {
    xs[i] = i * i
  }
  println(sumBelow(xs, 3, 17), sumBelow(xs, 5, 5))
  println(bump(4, 3), bump(-2, 2))
  q := boxed(41)
  *q = *q + 1
  println(*q, *boxed(7))
  a, b := order(9, 2)
  c, d := order(1, 5)
  e, f := reduce(100, 7)
  println(a, b, c, d, e, f)
  println(pick(true, 3, 8), pick(true, 8, 3), pick(false, 8, 3))
  println(depth(6000, 0))
  for k := 3; k < 6; k++ {
    println("dive", k, safeDive(k))
    println("after", depth(50, k), countdown(k, 1))
  }
  for k := 0; k < 3; k++ {
    println("survivor", k, survivor(k, k%2 == 0), countdown(k+2, 1))
  }
  for i := 0; i < 4; i++ {
    ok := i%2 == 0
    defer report(i, ok)
    defer note(i, ok)
    go worker(i, 3+i, ok)
  }
  // wait for every worker: each sets only its own done flag
  waiting := true
  for waiting {
    waiting = false
    for i := 0; i < 4; i++ {
      if done[i] == 0 {
        waiting = true
      }
    }
  }
  total := 0
  for i := 0; i < 4; i++ {
    total += sums[i]
  }
  println("workers", total, len(results), len(flags), results[3])
}
