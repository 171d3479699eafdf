"""Mini-Gallery2 application: items, permissions, resizing, view counts.

Two buggy handlers reproduce the §8.4 Gallery2 corruption bugs:

* ``perm_edit.php`` (buggy): revoking one user's permission on one item
  *deletes the permissions of every item in the album* — "removing
  permissions affects other items".
* ``resize.php`` (buggy): resizing one image *corrupts the dimensions of
  every image in the album* (writes width/height of all of them).

Item views increment a per-item ``view_count`` (real application data, so
taint false positives there survive table-level whitelisting) and append
to ``accesslog`` (whitelistable noise).
"""

from __future__ import annotations

from repro.appserver.context import AppContext, htmlspecialchars
from repro.db.storage import Column, TableSchema

GALLERY_TABLES = (
    TableSchema(
        name="items",
        columns=(
            Column("item_id", "int"),
            Column("name"),
            Column("album"),
            Column("owner"),
            Column("width", "int"),
            Column("height", "int"),
            Column("view_count", "int"),
        ),
        row_id_column="item_id",
        partition_columns=("name", "album"),
        unique_keys=(("name",),),
    ),
    TableSchema(
        name="perms",
        columns=(
            Column("perm_id", "int"),
            Column("item_name"),
            Column("user_name"),
            Column("level"),
        ),
        row_id_column="perm_id",
        partition_columns=("item_name", "user_name"),
    ),
    TableSchema(
        name="accesslog",
        columns=(
            Column("log_id", "int"),
            Column("path"),
            Column("who"),
        ),
        row_id_column="log_id",
        partition_columns=("who",),
    ),
)


def make_item_view():
    def handle(ctx: AppContext) -> None:
        name = ctx.param("name")
        who = ctx.param("user", "anonymous")
        # Gallery2 logs every item access, allowed or not.
        ctx.query(
            "INSERT INTO accesslog (path, who) VALUES (?, ?)",
            ("/item.php?name=" + name, who),
        )
        item = ctx.query_one(
            "SELECT item_id, width, height, view_count FROM items WHERE name = ?",
            (name,),
        )
        ctx.echo("<html><body>")
        if item is None:
            ctx.status = 404
            ctx.echo("<p>no such item</p></body></html>")
            return
        # Like Gallery2, the whole ACL for the item is loaded and the
        # check happens in application code.
        acl = ctx.query(
            "SELECT user_name, level FROM perms WHERE item_name = ?", (name,)
        )
        allowed = any(
            row["user_name"] in (who, "*") and row["level"] != "none"
            for row in acl
        )
        if not allowed:
            ctx.status = 403
            ctx.echo("<p id='denied'>permission denied</p></body></html>")
            return
        ctx.echo(
            f"<div id='photo'>{htmlspecialchars(name)} "
            f"({item['width']}x{item['height']})</div>"
        )
        ctx.query(
            "UPDATE items SET view_count = view_count + 1 WHERE name = ?", (name,)
        )
        ctx.echo("</body></html>")

    return {"handle": handle}


def make_perm_edit(buggy: bool):
    def handle(ctx: AppContext) -> None:
        name = ctx.param("name")
        user = ctx.param("target")
        if buggy:
            # The bug: the item filter is dropped, revoking the user's
            # permissions on *every* item.
            ctx.query(
                "UPDATE perms SET level = 'none' WHERE user_name = ?", (user,)
            )
        else:
            ctx.query(
                "UPDATE perms SET level = 'none' "
                "WHERE item_name = ? AND user_name = ?",
                (name, user),
            )
        ctx.echo("<html><body><p id='ok'>permissions updated</p></body></html>")

    return {"handle": handle}


def make_resize(buggy: bool):
    def handle(ctx: AppContext) -> None:
        name = ctx.param("name")
        width = int(ctx.param("width", "800"))
        height = int(ctx.param("height", "600"))
        if buggy:
            item = ctx.query_one("SELECT album FROM items WHERE name = ?", (name,))
            album = item["album"] if item else ""
            # The bug: the resize applies to the whole album.
            ctx.query(
                "UPDATE items SET width = ?, height = ? WHERE album = ?",
                (width, height, album),
            )
        else:
            ctx.query(
                "UPDATE items SET width = ?, height = ? WHERE name = ?",
                (width, height, name),
            )
        ctx.echo("<html><body><p id='ok'>image resized</p></body></html>")

    return {"handle": handle}


class GalleryApp:
    """Installs mini-Gallery2 into a WARP deployment."""

    ROUTES = {
        "/item.php": "item.php",
        "/perm_edit.php": "perm_edit.php",
        "/resize.php": "resize.php",
    }

    def __init__(self, ttdb, scripts, server) -> None:
        self.ttdb = ttdb
        self.scripts = scripts
        self.server = server

    def install(self, buggy_perms: bool = True, buggy_resize: bool = True) -> None:
        for schema in GALLERY_TABLES:
            self.ttdb.create_table(schema)
        self.scripts.register("item.php", make_item_view())
        self.scripts.register("perm_edit.php", make_perm_edit(buggy=buggy_perms))
        self.scripts.register("resize.php", make_resize(buggy=buggy_resize))
        for path, script in self.ROUTES.items():
            self.server.route(path, script)

    def seed_item(
        self,
        name: str,
        album: str,
        owner: str,
        width: int = 1024,
        height: int = 768,
        viewers=("*",),
    ) -> None:
        self.ttdb.execute(
            "INSERT INTO items (name, album, owner, width, height, view_count) "
            "VALUES (?, ?, ?, ?, ?, 0)",
            (name, album, owner, width, height),
        )
        for viewer in viewers:
            self.ttdb.execute(
                "INSERT INTO perms (item_name, user_name, level) VALUES (?, ?, 'view')",
                (name, viewer),
            )

    def item(self, name: str):
        return self.ttdb.execute(
            "SELECT name, width, height, view_count FROM items WHERE name = ?",
            (name,),
        ).one()
