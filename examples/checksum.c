// A slightly larger lint and fleet smoke input for test_cli: exercises
// globals, arrays, loops, helper calls and recursion so the IR and
// machine-code verifiers see a non-trivial CFG and call graph.

int table[64];

int mix(int x) {
  x = x ^ (x >> 7);
  x = (x * 31) & 0xffffffff;
  return x ^ (x << 3);
}

int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}

int main() {
  int sum = 0;
  for (int i = 0; i < 64; i = i + 1) {
    table[i] = mix(i * 2654435761);
  }
  for (int i = 0; i < 64; i = i + 1) {
    sum = (sum + table[i]) & 0xffffffff;
  }
  sum = sum ^ fib(12);
  print_str("checksum: ");
  println_int(sum);
  return 0;
}
