(* Unsigned bignums in base 10^9, little-endian limb arrays with no
   trailing zero limbs ([| |] is zero).  The decimal base makes
   [to_string] a straight limb dump; counting needs only addition and
   small multiplications, so the quadratic-free simplicity is the point. *)

type t = int array

let base = 1_000_000_000
let zero = [||]
let is_zero x = Array.length x = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bigcount.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n mod base) :: limbs (n / base) in
  Array.of_list (limbs n)

let one = of_int 1

let add x y =
  let lx = Array.length x and ly = Array.length y in
  let n = max lx ly in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < lx then x.(i) else 0) + (if i < ly then y.(i) else 0) + !carry in
    r.(i) <- s mod base;
    carry := s / base
  done;
  r.(n) <- !carry;
  normalize r

(* One limb times a factor stays within the native range as long as the
   factor is at most 2^30 (10^9 · 2^30 < 2^62); bigger factors are split
   below in [mul_int]. *)
let mul_small x f =
  if f = 0 || is_zero x then zero
  else begin
    let n = Array.length x in
    let r = Array.make (n + 2) 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (x.(i) * f) + !carry in
      r.(i) <- p mod base;
      carry := p / base
    done;
    let i = ref n in
    while !carry > 0 do
      r.(!i) <- !carry mod base;
      carry := !carry / base;
      incr i
    done;
    normalize r
  end

let shift_left x k =
  if k < 0 then invalid_arg "Bigcount.shift_left: negative";
  let rec go x k = if k = 0 then x else go (mul_small x (1 lsl min k 29)) (k - min k 29) in
  go x k

let rec mul_int x f =
  if f < 0 then invalid_arg "Bigcount.mul_int: negative"
  else if f <= 1 lsl 30 then mul_small x f
  else
    (* x·f = (x·⌊f/2^30⌋)·2^30 + x·(f mod 2^30) *)
    add (shift_left (mul_int x (f lsr 30)) 30) (mul_small x (f land ((1 lsl 30) - 1)))

let pow2 k = shift_left one k

(* Exact halving: one top-down pass per bit, carrying the remainder into
   the next (lower) limb — in base 10^9 a carry of 1 is worth 10^9/2·2,
   so [carry·base + limb] never leaves the native range. *)
let shift_right x k =
  if k < 0 then invalid_arg "Bigcount.shift_right: negative";
  let x = ref (Array.copy x) in
  for _ = 1 to k do
    let a = !x in
    let carry = ref 0 in
    for i = Array.length a - 1 downto 0 do
      let v = (!carry * base) + a.(i) in
      a.(i) <- v / 2;
      carry := v land 1
    done;
    if !carry <> 0 then invalid_arg "Bigcount.shift_right: inexact";
    x := normalize a
  done;
  !x

let compare x y =
  let c = Int.compare (Array.length x) (Array.length y) in
  if c <> 0 then c
  else
    let rec go i =
      if i < 0 then 0
      else
        let c = Int.compare x.(i) y.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length x - 1)

let equal x y = compare x y = 0

let to_string x =
  if is_zero x then "0"
  else begin
    let n = Array.length x in
    let b = Buffer.create (n * 9) in
    Buffer.add_string b (string_of_int x.(n - 1));
    for i = n - 2 downto 0 do
      Buffer.add_string b (Printf.sprintf "%09d" x.(i))
    done;
    Buffer.contents b
  end

let to_int x =
  let rec go acc i =
    if i < 0 then Some acc
    else if acc > (max_int - x.(i)) / base then None
    else go ((acc * base) + x.(i)) (i - 1)
  in
  go 0 (Array.length x - 1)

let pp fmt x = Format.pp_print_string fmt (to_string x)
