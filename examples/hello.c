// Smallest end-to-end MiniC program: builds, packages, and runs under
// the simulator; also a `lint --mode full --lint-error` input in
// test_cli.

char banner[16] = "hello, eric";

int main() {
  println_str(banner);
  return 0;
}
