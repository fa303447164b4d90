let g ?(a = 3) () = a
