
// JSON values: kind 0=null 1=number 2=string 3=array 4=object
type JVal struct {
  kind int
  num  int
  str  string
  arr  []*JVal
  obj  map[string]*JVal
}

type ParseState struct {
  input string
  pos   int
}

func peekByte(ps *ParseState) int {
  if ps.pos >= len(ps.input) {
    return -1
  }
  return ps.input[ps.pos]
}

func skipSpaces(ps *ParseState) {
  for ps.pos < len(ps.input) && ps.input[ps.pos] == 32 {
    ps.pos = ps.pos + 1
  }
}

func parseNumber(ps *ParseState) *JVal {
  n := 0
  for ps.pos < len(ps.input) && ps.input[ps.pos] >= 48 && ps.input[ps.pos] <= 57 {
    n = n*10 + ps.input[ps.pos] - 48
    ps.pos = ps.pos + 1
  }
  return &JVal{kind: 1, num: n}
}

func parseString(ps *ParseState) string {
  ps.pos = ps.pos + 1 // opening quote
  start := ps.pos
  for ps.pos < len(ps.input) && ps.input[ps.pos] != 34 {
    ps.pos = ps.pos + 1
  }
  s := substr(ps.input, start, ps.pos)
  ps.pos = ps.pos + 1 // closing quote
  return s
}

func parseValue(ps *ParseState) *JVal {
  skipSpaces(ps)
  c := peekByte(ps)
  if c == 34 {
    return &JVal{kind: 2, str: parseString(ps)}
  }
  if c == 91 { // '['
    ps.pos = ps.pos + 1
    arr := make([]*JVal, 0, 4)
    skipSpaces(ps)
    for peekByte(ps) != 93 {
      arr = append(arr, parseValue(ps))
      skipSpaces(ps)
      if peekByte(ps) == 44 {
        ps.pos = ps.pos + 1
        skipSpaces(ps)
      }
    }
    ps.pos = ps.pos + 1
    return &JVal{kind: 3, arr: arr}
  }
  if c == 123 { // '{'
    ps.pos = ps.pos + 1
    obj := make(map[string]*JVal)
    skipSpaces(ps)
    for peekByte(ps) != 125 {
      key := parseString(ps)
      skipSpaces(ps)
      ps.pos = ps.pos + 1 // ':'
      obj[key] = parseValue(ps)
      skipSpaces(ps)
      if peekByte(ps) == 44 {
        ps.pos = ps.pos + 1
        skipSpaces(ps)
      }
    }
    ps.pos = ps.pos + 1
    return &JVal{kind: 4, obj: obj}
  }
  if c >= 48 && c <= 57 {
    return parseNumber(ps)
  }
  // null / unknown token
  ps.pos = ps.pos + 4
  return &JVal{kind: 0}
}

func parse(input string) *JVal {
  ps := &ParseState{input: input, pos: 0}
  return parseValue(ps)
}

// Random document generator (pure string building).
func genDoc(id int, fields int) string {
  // constant, non-escaping: stays on the stack
  digits := make([]int, 8)
  digits[0] = id
  doc := "{"
  for f := 0; f < fields; f++ {
    if f > 0 {
      doc = doc + ", "
    }
    doc = doc + "\"k" + itoa(f) + "\": "
    which := rand(3)
    if which == 0 {
      doc = doc + itoa(rand(100000))
    } else {
      if which == 1 {
        doc = doc + "\"v" + itoa(id*31+f) + "\""
      } else {
        doc = doc + "[" + itoa(f) + ", " + itoa(id) + ", " + itoa(rand(99)) + "]"
      }
    }
  }
  return doc + "}" + itoa(digits[0]*0)
}

func countNodes(v *JVal) int {
  if v.kind == 3 {
    n := 1
    for i := 0; i < len(v.arr); i++ {
      n += countNodes(v.arr[i])
    }
    return n
  }
  if v.kind == 4 {
    return 1 + len(v.obj)
  }
  return 1
}

func main() {
  total := 0
  keysSeen := 0
  for i := 0; i < 300; i++ {
    doc := genDoc(i, 20+rand(36))
    v := parse(doc)
    total += countNodes(v)
    probe := v.obj["k3"]
    if probe != nil {
      if probe.kind == 1 {
        keysSeen += probe.num % 7
      }
    }
  }
  println("docs", 300, "nodes", total, "probe", keysSeen)
}
