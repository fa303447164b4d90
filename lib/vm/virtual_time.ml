module Time = Sw_sim.Time

let fp_bits = 20
let fp_scale = Float.of_int (1 lsl fp_bits)

type t = {
  mutable base_virt : Time.t;  (** virt at [base_instr]. *)
  mutable base_instr : int;
  mutable slope_fp : int;  (** ns per branch, scaled by 2^20. *)
}

let slope_to_fp slope_ns_per_branch =
  if slope_ns_per_branch < 0. then
    invalid_arg "Virtual_time: slope must be non-negative";
  int_of_float (Float.round (slope_ns_per_branch *. fp_scale))

let create ~start ~slope_ns_per_branch () =
  { base_virt = start; base_instr = 0; slope_fp = slope_to_fp slope_ns_per_branch }

(* The product below can pass 2^62 while its int64 result is still
   defined, so it is computed in a function-local int64 expression, which
   ocamlopt keeps unboxed: no allocation, and the same bits as a clock kept
   in int64 throughout. *)

let virt_at t instr =
  if instr < t.base_instr then
    invalid_arg "Virtual_time.virt_at: instr precedes current segment";
  let delta = Int64.of_int (instr - t.base_instr) in
  Time.add t.base_virt
    (Int64.to_int
       (Int64.shift_right_logical
          (Int64.mul delta (Int64.of_int t.slope_fp))
          fp_bits))

let set_slope t ~at_instr ~slope_ns_per_branch =
  let base_virt = virt_at t at_instr in
  t.base_virt <- base_virt;
  t.base_instr <- at_instr;
  t.slope_fp <- slope_to_fp slope_ns_per_branch

let clamped_slope ~l ~u x =
  if l > u then invalid_arg "Virtual_time.clamped_slope: l > u";
  Float.max l (Float.min u x)
