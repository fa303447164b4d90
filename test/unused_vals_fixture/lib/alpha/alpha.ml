let f ?(a = 1) () = a
let h ?(b = 2) () = f ~a:b ()
