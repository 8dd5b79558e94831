let run expr lv =
  let auto = Xpath.Compile.compile [ ((), expr) ] in
  let fl, vis = Core.Lazy_view.flat_visibility lv in
  let view ix (n : Xmldoc.Node.t) =
    match Bytes.get vis ix with
    | '\000' -> None
    | '\001' -> Some n
    | _ -> Some { n with label = Core.View.restricted }
  in
  let f acc (n : Xmldoc.Node.t) _ = Ordpath.to_string n.id :: acc in
  let scan =
    List.rev (Xpath.Compile.fold_view_flat auto fl ~view ~init:[] ~f)
  in
  let anchored =
    Option.map
      (fun a ->
        (* The served plan's candidate filter: shown under the source
           label. *)
        let shown ix = Bytes.get vis ix = '\001' in
        List.rev
          (Xpath.Compile.fold_ranges_flat ~view auto fl
             ~ranges:(Xpath.Compile.anchor_ranges ~shown fl a)
             ~init:[] ~f))
      (Core.Rewrite.anchorable (Core.Rewrite.plan expr) fl)
  in
  (scan, anchored)
