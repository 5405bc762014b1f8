(* The resolved-slot interpreter (Minic.Resolve + flat int-array frames)
   must be observationally identical to the original string-lookup
   interpreter: same result record and the same event stream, byte for
   byte. Checked on hand-written scoping corner cases and on random
   generator workloads. *)

module Interp = Minic_sim.Interp
module Generator = Foray_util.Progen

let run_both ?(config = Interp.default_config) src =
  let prog = Minic.Parser.program src in
  Minic.Sema.check_exn prog;
  let instrumented = Foray_instrument.Annotate.program prog in
  let resolved =
    Tutil.run_to_trace ~config:{ config with resolve = true } instrumented
  in
  let unresolved =
    Tutil.run_to_trace ~config:{ config with resolve = false } instrumented
  in
  (resolved, unresolved)

let event_lines trace = List.map Foray_trace.Event.to_line trace

let check_equal ?config name src =
  let (r1, t1), (r0, t0) = run_both ?config src in
  Alcotest.(check int) (name ^ ": ret") r0.Interp.ret r1.Interp.ret;
  Alcotest.(check (list int)) (name ^ ": output") r0.output r1.output;
  Alcotest.(check int) (name ^ ": steps") r0.steps r1.steps;
  Alcotest.(check int) (name ^ ": accesses") r0.accesses r1.accesses;
  Alcotest.(check (list string))
    (name ^ ": event stream")
    (event_lines t0) (event_lines t1)

(* -- scoping corner cases the resolver must mirror exactly ------------- *)

let t_shadowing () =
  check_equal "block shadowing"
    {|
      int g = 3;
      int main() {
        int x = g;
        { int x = 10; print_int(x); { int x = x + 1; print_int(x); } }
        print_int(x);
        return x;
      }
    |}

let t_decl_before_init () =
  (* a declaration binds its name before the initializer is evaluated, so
     [int x = x + 1] reads the fresh (zero-initialized) slot, not an outer
     binding -- both interpreters must agree *)
  check_equal "decl binds before initializer"
    {|
      int x = 7;
      int main() {
        int x = x + 1;
        print_int(x);
        return 0;
      }
    |}

let t_global_forward_ref () =
  check_equal "global initializers see later globals"
    {|
      int a = b + 1;
      int b = 5;
      int main() { print_int(a); print_int(b); return 0; }
    |}

let t_param_and_recursion () =
  check_equal "params, recursion, arrays in frames"
    {|
      int fib(int n) {
        int scratch[4];
        scratch[n % 4] = n;
        if (n < 2) return scratch[n % 4];
        return fib(n - 1) + fib(n - 2);
      }
      int main() { print_int(fib(10)); return 0; }
    |}

let t_loop_body_fresh_slots () =
  (* each iteration re-declares locals; addresses (hence events) must match
     the lazy per-frame allocation of the slow path *)
  check_equal "per-iteration declarations"
    {|
      int acc = 0;
      int main() {
        int i;
        for (i = 0; i < 5; i = i + 1) {
          int t = i * 2;
          int u[2];
          u[0] = t; u[1] = t + 1;
          acc = acc + u[0] + u[1];
        }
        print_int(acc);
        return 0;
      }
    |}

(* -- suite + generated workloads --------------------------------------- *)

let t_suite_equal () =
  List.iter
    (fun (b : Foray_suite.Suite.bench) ->
      if b.name <> "jpeg" && b.name <> "lame" then
        check_equal ("suite " ^ b.name) b.source)
    Foray_suite.Suite.all

let prop_generated_equal =
  QCheck2.Test.make ~name:"resolved interp == string-lookup interp" ~count:30
    QCheck2.Gen.(pair (int_range 1 5000) (int_range 1 5))
    (fun (seed, nests) ->
      let g = Generator.generate ~seed ~nests in
      let (r1, t1), (r0, t0) = run_both g.source in
      r1.Interp.ret = r0.Interp.ret
      && r1.output = r0.output
      && r1.steps = r0.steps
      && r1.accesses = r0.accesses
      && t1 = t0)

let tests =
  [
    Alcotest.test_case "block shadowing" `Quick t_shadowing;
    Alcotest.test_case "decl binds before initializer" `Quick
      t_decl_before_init;
    Alcotest.test_case "global forward references" `Quick t_global_forward_ref;
    Alcotest.test_case "params and recursion" `Quick t_param_and_recursion;
    Alcotest.test_case "per-iteration declarations" `Quick
      t_loop_body_fresh_slots;
    Alcotest.test_case "suite benchmarks agree" `Slow t_suite_equal;
    QCheck_alcotest.to_alcotest prop_generated_equal;
  ]
