
var interned map[string]int
var output map[int][]int
var debugInfo map[int][]int

func internSymbol(name string) int {
  known := interned[name]
  if known > 0 {
    return known
  }
  id := len(interned) + 1
  interned[name] = id
  return id
}

// Factory for per-block analysis scopes: the returned map is a fresh
// heap allocation the caller can explicitly free (content tags, 4.4).
func newScope() map[int]int {
  return make(map[int]int)
}

// Build the raw instruction stream of one basic block: a short-lived
// scratch buffer.
func genBlock(fn int, blk int, n int) []int {
  instrs := make([]int, 0, 8)
  for i := 0; i < n; i++ {
    op := rand(16)
    instrs = append(instrs, op*65536 + fn*256 + blk)
  }
  return instrs
}

type Cursor struct {
  pos   int
  limit int
}

// Constant folding: consumes the raw block, produces the retained one.
func foldBlock(instrs []int) []int {
  // fixed-size operand scratch: constant and non-escaping, so Go's
  // stack allocation covers it (Table 8's stack columns)
  scratch := make([]int, 8)
  cur := &Cursor{pos: 0, limit: len(instrs)}
  out := make([]int, 0, len(instrs))
  acc := 0
  for i := 0; i < len(instrs); i++ {
    op := instrs[i] / 65536
    scratch[op%8] = i
    cur.pos = i
    if op < 4 {
      acc = acc + instrs[i]%65536 + scratch[0]*0
    } else {
      if acc > 0 {
        out = append(out, acc)
        acc = 0
      }
      out = append(out, instrs[i])
    }
  }
  if acc > 0 {
    out = append(out, acc)
  }
  return out
}

// Local value numbering over a per-block scope map.
func numberBlock(instrs []int) int {
  defs := newScope()
  for i := 0; i < len(instrs); i++ {
    defs[instrs[i]%512] = i
  }
  sum := 0
  for i := 0; i < len(instrs); i++ {
    sum += defs[instrs[i]%512]
  }
  return sum
}

func compileFunc(fn int) int {
  checksum := 0
  nblocks := 4 + rand(6)
  for b := 0; b < nblocks; b++ {
    raw := genBlock(fn, b, 20+rand(40))
    folded := foldBlock(raw)
    checksum += numberBlock(folded)
    checksum += internSymbol("fn" + itoa(fn) + "blk" + itoa(b))
    checksum += internSymbol("sym" + itoa(fn*nblocks+b))
    checksum += internSymbol("typ" + itoa(fn*31+b*7))
    checksum += internSymbol("loc" + itoa(fn*17+b*3))
    // the compiled block and its debug records escape into the image
    output[fn*64+b] = folded
    dbg := make([]int, len(folded)*7+8)
    for d := 0; d < len(dbg); d++ {
      dbg[d] = fn + d
    }
    debugInfo[fn*64+b] = dbg
  }
  return checksum
}

func main() {
  interned = make(map[string]int)
  output = make(map[int][]int)
  debugInfo = make(map[int][]int)
  total := 0
  for fn := 0; fn < 150; fn++ {
    total += compileFunc(fn)
  }
  println("compiled", 150, "checksum", total, "symbols", len(interned), "blocks", len(output))
}
