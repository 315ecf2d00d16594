// Rotated counted loops: a loop with a register post statement and a
// one-instruction `<` condition re-tests the condition at its back edge
// and lands past the body's leading safepoint.  Every condition form
// (register against register, register against a constant, a register
// against len of a local) under each comparison, zero-trip loops, break
// and continue, a bound changed by the body, a slice the body
// reassigns, shrinks or grows, bodies that do not open with a lone
// safepoint, and register-operand arithmetic, divide by zero included.

var sums []int
var done []int

// register against register, each comparison
func rr(n int) int {
  s := 0
  for i := 0; i < n; i++ {
    s += i
  }
  for i := 0; i <= n; i += 2 {
    s += i * 3
  }
  lo := 2
  for i := n; i > lo; i-- {
    s -= i
  }
  for i := n; i >= lo; i -= 3 {
    s += i
  }
  k := n + 4
  for i := 0; i != k; i++ {
    s += k - i
  }
  one := 1
  for i := 1; i == one; i++ {
    s += 1000
  }
  return s
}

// register against a constant, each comparison, both operand orders
func rk() int {
  s := 0
  for i := 0; i < 7; i++ {
    s += i
  }
  for i := 0; i <= 7; i += 3 {
    s += i * 10
  }
  for i := 9; i > 0; i-- {
    s -= i
  }
  for i := 9; i >= 0; i -= 4 {
    s += i * 100
  }
  for i := 0; i != 5; i++ {
    s += 2
  }
  for i := 3; i == 3; i++ {
    s += 7
  }
  for i := 0; 6 > i; i++ {
    s += i * i
  }
  return s
}

// loops that never run their body
func zeroTrip(n int) int {
  s := 0
  for i := 0; i < n; i++ {
    s += 1
  }
  for i := 10; i < 3; i++ {
    s += 2
  }
  var none []int
  for i := 0; i < len(none); i++ {
    s += 4
  }
  empty := ""
  for i := 0; i < len(empty); i++ {
    s += 8
  }
  for i := n; i > n; i-- {
    s += 16
  }
  return s
}

// break and continue inside rotated loops, nested
func jumps(n int) int {
  s := 0
  for i := 0; i < n; i++ {
    if i%3 == 0 {
      continue
    }
    if i > 20 {
      break
    }
    for j := 0; j < 5; j++ {
      if j == i%5 {
        break
      }
      if j%2 == 1 {
        continue
      }
      s += i * j
    }
    s += i
  }
  return s
}

// the body changes the bound register and the counter itself
func movingBound(n int) int {
  s := 0
  m := n
  for i := 0; i < m; i++ {
    if i == 3 {
      m = m - 2
    }
    if i == 5 {
      i = i + 1
    }
    s = s*2 + i
  }
  return s + m
}

// the back edge reads len again: the body reassigns, shrinks and grows
// the slice
func slices(n int) int {
  xs := make([]int, n)
  for i := 0; i < len(xs); i++ {
    xs[i] = i * i
  }
  s := 0
  for i := 0; i < len(xs); i++ {
    s += xs[i]
    if i == 2 {
      xs = xs[:len(xs)-3]
    }
  }
  ys := make([]int, 2)
  for i := 0; i < len(ys); i++ {
    if len(ys) < n {
      ys = append(ys, i*5)
    }
    s += ys[i]
  }
  zs := []int{1, 2, 3}
  for i := 0; i < len(zs); i++ {
    zs = []int{9, 8, 7, 6, 5, 4}
    s += zs[i]
  }
  words := []string{"a", "bb", "ccc"}
  for i := 0; i < len(words); i++ {
    s += len(words[i])
  }
  str := "rotate"
  for i := 0; i < len(str); i++ {
    s += str[i]
  }
  return s
}

// bodies that do not open with a lone safepoint keep the unrotated back
// edge: a nested block, and a body whose slices live on the stack
func unrotated(n int) int {
  s := 0
  for i := 0; i < n; i++ {
    {
      s += i
    }
  }
  for i := 0; i < n; i++ {
    buf := make([]int, 4)
    buf[i%4] = i
    s += buf[i%4]
  }
  return s
}

// register operands: I op= R, R op k, and R <cmp> k branches
func operands(a int, b int) int {
  s := a + b
  s = s - b
  s = s * b
  s = s + a*7 + 3*b + a/4 + b%5
  if a < 10 {
    s += 1
  }
  if b >= 3 {
    s += 2
  }
  if 4 == a {
    s += 4
  }
  if a != 4 {
    s += 8
  }
  return s
}

func guard() {
  msg := recover()
  if msg != "" {
    println("recovered:", msg)
  }
}

// a register divided by a constant zero panics like a / 0 always did
func divZero(a int) int {
  defer guard()
  return a / 0
}

func modZero(a int) int {
  defer guard()
  return a % 0
}

// goroutines running rotated loops, so that small yield intervals land
// on every step of a back edge.  Each writes only its own slots: what
// main prints does not depend on the schedule.
func worker(id int, n int) {
  t := 0
  xs := make([]int, n)
  for i := 0; i < len(xs); i++ {
    xs[i] = i * id
  }
  for i := 0; i < n; i++ {
    t += xs[i]
  }
  for i := n; i > 0; i-- {
    t += i
  }
  sums[id] = t
  done[id] = 1
}

func main() {
  println(rr(9), rr(0), rr(3))
  println(rk())
  println(zeroTrip(0), zeroTrip(-1))
  println(jumps(30), jumps(0))
  println(movingBound(10), movingBound(2))
  println(slices(8))
  println(unrotated(6))
  println(operands(4, 9), operands(12, 1))
  println(divZero(5), modZero(5))
  sums = make([]int, 3)
  done = make([]int, 3)
  for g := 0; g < 3; g++ {
    go worker(g, 30+g)
  }
  spin := 0
  for i := 0; i < 40; i++ {
    spin += i
  }
  // wait for every worker
  waiting := true
  for waiting {
    waiting = false
    for g := 0; g < 3; g++ {
      if done[g] == 0 {
        waiting = true
      }
    }
  }
  println("workers", spin, sums[0], sums[1], sums[2])
}
