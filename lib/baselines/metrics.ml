module D = Xmldoc.Document

type comparison = {
  source_nodes : int;
  readable_nodes : int;
  core_visible : int;
  core_restricted : int;
  deny_subtree_visible : int;
  deny_subtree_lost : int;
  structure_preserving_visible : int;
  structure_preserving_leaked : int;
}

let core_leaked view perm =
  D.fold
    (fun (n : Xmldoc.Node.t) acc ->
      if
        n.kind <> Xmldoc.Node.Document
        && (not (Core.Perm.holds perm Core.Privilege.Read n.id))
        && not (String.equal n.label Core.View.restricted)
      then acc + 1
      else acc)
    view 0

let compare_models session =
  let doc = Core.Session.source session and perm = Core.Session.perm session in
  let core_view = Core.Session.view session in
  let restricted =
    D.fold
      (fun (n : Xmldoc.Node.t) acc ->
        if String.equal n.label Core.View.restricted then acc + 1 else acc)
      core_view 0
  in
  let readable = Ordpath.Set.cardinal (Core.Perm.permitted perm Core.Privilege.Read) in
  {
    source_nodes = D.size doc - 1;
    readable_nodes = readable;
    core_visible = Core.View.visible_count core_view;
    core_restricted = restricted;
    deny_subtree_visible =
      Core.View.visible_count (Deny_subtree.derive doc perm);
    deny_subtree_lost = List.length (Deny_subtree.lost_nodes doc perm);
    structure_preserving_visible =
      Core.View.visible_count (Structure_preserving.derive doc perm);
    structure_preserving_leaked =
      List.length (Structure_preserving.leaked_nodes doc perm);
  }

let header =
  Printf.sprintf "%-24s %10s %10s %10s" "model" "visible" "lost" "leaked"

let pp fmt c =
  Format.fprintf fmt "%-24s %10d %10s %10s@."
    "core (this paper)" c.core_visible "0" "0";
  Format.fprintf fmt "%-24s %10d %10d %10s@."
    "deny-subtree [11]" c.deny_subtree_visible c.deny_subtree_lost "0";
  Format.fprintf fmt "%-24s %10d %10s %10d"
    "structure-preserving [7]" c.structure_preserving_visible "0"
    c.structure_preserving_leaked
