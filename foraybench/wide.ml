(* Programs with large footprint sets, for the analyze-wide workload.

   Program [k] of a seed always has the same shape and size — its strided
   arrays span 2^16..2^18 words, it makes 1M..2.5M trace events, and its
   strides and trip counts are fixed by [k] — so run time and memory do not
   drift with the seed; the seed picks the offsets, the gaps between rows
   and blocks, and the gather table's multiplier. Strides are two or three
   words, so no footprint collapses into one interval and the footprint
   sets grow with the number of distinct addresses. Each program has nests
   1-3 deep of strided affine
   references plus one table gather [A\[T\[i\]\]], which is not affine and
   must be purged by Step 4. [planted] lists the byte coefficients,
   innermost first, of every affine reference: the model must show exactly
   these, a reference that does not come from the extractor. *)

module Prng = Foray_util.Prng

type t = {
  name : string;
  source : string;
  planted : int list list;  (** per affine reference, innermost first *)
}

let count = 4

(* Work size per program in words: the gather table holds n/4 entries and
   the main array n/2 strided elements. *)
let size k = [| 1 lsl 16; 1 lsl 16; 1 lsl 17; 1 lsl 17 |].(k)

(* [n] overrides the work size (a power of two >= 2^11), for smoke runs. *)
let generate ~seed ?(n = 0) k =
  let rng = Prng.create ((seed * 7919) + k) in
  let n = if n > 0 then n else size k in
  (* strided fill of A (depth 1) *)
  let s1 = [| 2; 3; 2; 3 |].(k) and o1 = Prng.range rng 0 7 in
  (* 2-deep copy into B, reading A through a second affine function *)
  let c = [| 64; 128; 256; 128 |].(k) in
  let r = n / 2 / c in
  let s2 = [| 3; 2; 3; 2 |].(k) and g2 = Prng.range rng 0 7 in
  let rs = (c * s2) + g2 in
  (* 3-deep blocked walk over D *)
  let c3 = [| 16; 32; 16; 32 |].(k) and r3 = [| 8; 8; 16; 16 |].(k) in
  let nb = n / 4 / (c3 * r3) in
  let s3 = [| 2; 3; 3; 2 |].(k) in
  let js = (c3 * s3) + Prng.range rng 0 5 in
  let bs = (r3 * js) + Prng.range rng 0 9 in
  (* gather table: an odd multiplier large enough to wrap every few
     iterations, so A[T[i]] is never affine *)
  let p = (2 * Prng.range rng (n / 16) (n / 8)) + 1 and q = Prng.int rng n in
  let source =
    String.concat ""
      [
        Printf.sprintf "int T[%d];\nint A[%d];\nint B[%d];\nint D[%d];\nint s;\n"
          (n / 4)
          ((s1 * (n / 2)) + o1 + 1)
          ((r * rs) + 1)
          ((nb * bs) + 1);
        "int main() {\n  int i;\n  int j;\n  int b;\n";
        Printf.sprintf
          "  for (i = 0; i < %d; i++) {\n    T[i] = (i * %d + %d) & %d;\n  }\n"
          (n / 4) p q (n - 1);
        Printf.sprintf
          "  for (i = 0; i < %d; i++) {\n    A[%d * i + %d] = i;\n  }\n" (n / 2)
          s1 o1;
        Printf.sprintf
          "  for (j = 0; j < %d; j++) {\n    for (i = 0; i < %d; i++) {\n\
          \      B[j * %d + %d * i] = A[j * %d + %d * i + %d];\n    }\n  }\n"
          r c rs s2 (s1 * c) s1 o1;
        Printf.sprintf
          "  for (b = 0; b < %d; b++) {\n    for (j = 0; j < %d; j++) {\n\
          \      for (i = 0; i < %d; i++) {\n\
          \        D[b * %d + j * %d + %d * i] = i + j;\n      }\n    }\n  }\n"
          nb r3 c3 bs js s3;
        Printf.sprintf
          "  s = 0;\n  for (i = 0; i < %d; i++) {\n    s = s + A[T[i]];\n  }\n"
          (n / 4);
        "  return s & 255;\n}\n";
      ]
  in
  {
    name = Printf.sprintf "wide%d" k;
    source;
    planted =
      [
        [ 4 ] (* T write *);
        [ 4 * s1 ] (* A write *);
        [ 4 * s2; 4 * rs ] (* B write *);
        [ 4 * s1; 4 * s1 * c ] (* A read *);
        [ 4 * s3; 4 * js; 4 * bs ] (* D write *);
        [ 4 ] (* T read *);
      ];
  }

let all ~seed = List.init count (generate ~seed)
