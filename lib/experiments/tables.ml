let row ~width cells =
  Format.printf "%s@."
    (String.concat "  "
       (List.map (fun c -> Printf.sprintf "%*s" width c) cells))

let header ~width cells =
  row ~width cells;
  let dashes =
    List.map
      (fun c -> String.make (Stdlib.min width (String.length c + 2)) '-')
      cells
  in
  row ~width dashes

let section title =
  Format.printf "@\n%s@\n%s@." title (String.make (String.length title) '=')

let subsection title =
  Format.printf "@\n%s@\n%s@." title (String.make (String.length title) '-')

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let f0 x = Printf.sprintf "%.0f" x
