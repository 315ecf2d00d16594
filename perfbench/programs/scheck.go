
var diagnostics map[string]int
var packageCache map[int][]int

func newFactMap() map[int]int {
  return make(map[int]int)
}

// One synthetic function body, retained in the package cache like a
// loaded SSA function.
func loadBody(fn int) []int {
  n := 400 + rand(400)
  body := make([]int, n)
  for i := 0; i < n; i++ {
    body[i] = rand(8)*1024 + rand(256)
  }
  packageCache[fn] = body
  return body
}

// Check 1: reaching definitions via a per-function fact map.
func checkDefs(body []int) int {
  defs := newFactMap()
  bad := 0
  for i := 0; i < len(body); i++ {
    op := body[i] / 1024
    tgt := body[i] % 1024
    if op < 2 {
      defs[tgt%32] = i + 1
    } else {
      if defs[tgt%32] == 0 && tgt != 0 {
        bad++
      }
    }
  }
  return bad
}

// Check 2: purity facts accumulated per function.
func checkPurity(body []int) int {
  facts := newFactMap()
  for i := 0; i < len(body); i++ {
    if body[i]/1024 >= 6 {
      facts[body[i]%24] = 1
    }
  }
  return len(facts)
}

func checkFunc(fn int) {
  // constant-size op histogram: non-escaping, stack-allocated
  hist := make([]int, 8)
  body := loadBody(fn)
  for i := 0; i < len(body); i++ {
    hist[(body[i]/1024)%8]++
  }
  unreached := checkDefs(body)
  impure := checkPurity(body)
  if unreached > 0 {
    diagnostics["SA4006:"+itoa(fn%97)] = unreached
  }
  if impure > 20 {
    diagnostics["SA1019:"+itoa(fn%89)] = impure + hist[0]*0
  }
}

func main() {
  diagnostics = make(map[string]int)
  packageCache = make(map[int][]int)
  for fn := 0; fn < 350; fn++ {
    checkFunc(fn)
  }
  println("checked", 350, "diagnostics", len(diagnostics))
}
