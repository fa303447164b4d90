include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* The odd multiplier carries every key bit upward through the product;
     the shift folds the high half back into the low bits the table masks
     with, so keys that differ only above bit 31 (the source half of a
     packed address pair) still spread. *)
  let hash k =
    let h = k * 0x2545_F491_4F6C_DD1D in
    h lxor (h lsr 32)
end)
