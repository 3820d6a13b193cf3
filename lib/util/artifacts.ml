(** Default destination for run artifacts — trace JSON, anatomy tables,
    scrape dumps — so tools stop littering the repository root.  The
    directory is created on first use and is gitignored. *)

let dir = "artifacts"

let ensure_dir () =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()

(** [path "serve-f.trace.json"] = ["artifacts/serve-f.trace.json"],
    creating the directory if needed.  Absolute or slash-containing
    names pass through untouched so explicit [--trace a/b.json] style
    destinations keep working. *)
let path name =
  if Filename.is_relative name && String.equal (Filename.dirname name) "." then begin
    ensure_dir ();
    Filename.concat dir name
  end
  else name
